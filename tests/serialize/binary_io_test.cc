// The shared byte path (serialize/binary_io.h): whole-file read, atomic
// replace through the shared temp name, the temp-writer liveness check,
// and BufReader's refusal to size an allocation from a length field the
// payload cannot back.
#include "serialize/binary_io.h"

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace nnr::serialize {
namespace {

namespace fs = std::filesystem;

class BinaryIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("nnr_binary_io_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::size_t files_in_dir() const {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry : fs::directory_iterator(dir_)) {
      ++n;
    }
    return n;
  }

  fs::path dir_;
};

TEST_F(BinaryIoTest, ReplaceFileRoundTripsThroughReadFile) {
  const std::string path = (dir_ / "f.bin").string();
  const std::string bytes("a\0b\xff\n", 5);
  ASSERT_TRUE(replace_file(path, bytes));
  EXPECT_EQ(read_file(path), bytes);
  ASSERT_TRUE(replace_file(path, "shorter"));
  EXPECT_EQ(read_file(path), "shorter") << "replacement, not an overwrite";
  ASSERT_TRUE(replace_file(path, ""));
  EXPECT_EQ(read_file(path), "");
  EXPECT_EQ(files_in_dir(), 1u) << "no temp file may outlive a write";
}

TEST_F(BinaryIoTest, ReadFileOfAMissingPathIsNullopt) {
  EXPECT_FALSE(read_file((dir_ / "absent").string()).has_value());
}

TEST_F(BinaryIoTest, FailedReplaceLeavesNoTempFileBehind) {
  // Missing parent directory: the temp file cannot even be opened.
  EXPECT_FALSE(replace_file((dir_ / "no" / "such" / "f").string(), "x"));
  // The target is a non-empty directory: the rename fails after the temp
  // file was written, and the temp file must go.
  const fs::path target = dir_ / "occupied";
  fs::create_directories(target / "child");
  EXPECT_FALSE(replace_file(target.string(), "x"));
  EXPECT_TRUE(fs::is_directory(target));
  EXPECT_EQ(files_in_dir(), 1u);
}

TEST_F(BinaryIoTest, TempPathNamesThisProcessAsALiveWriter) {
  const std::string path = (dir_ / "entry.rr").string();
  const std::string tmp = temp_path(path);
  EXPECT_EQ(tmp.rfind(path + ".tmp" + std::to_string(::getpid()) + ".", 0),
            0u)
      << tmp;
  const std::string name = fs::path(tmp).filename().string();
  EXPECT_TRUE(is_temp_name(name));
  EXPECT_TRUE(temp_writer_alive(name));
  EXPECT_FALSE(is_temp_name("entry.rr"));
  EXPECT_FALSE(temp_writer_alive("entry.rr.tmp99999999.1"))
      << "a pid that cannot exist";
  EXPECT_FALSE(temp_writer_alive("entry.rr.tmp"))
      << "no pid: only a crashed writer leaves such a name";
  EXPECT_FALSE(temp_writer_alive("entry.rr.tmpjunk.1"));
}

TEST(BufReaderTest, LengthBeyondThePayloadThrowsBeforeAllocating) {
  detail::BufWriter w("MAGC");
  w.put(~std::uint64_t{0});
  w.put(std::uint32_t{0xFFFFFFFF});
  const std::string bytes = w.finish();
  detail::BufReader vec(bytes, "MAGC");
  EXPECT_THROW((void)vec.get_vector<float>(vec.get<std::uint64_t>()),
               CheckpointError);
  detail::BufReader str(bytes, "MAGC");
  (void)str.get<std::uint64_t>();
  EXPECT_THROW((void)str.get_string(str.get<std::uint32_t>()),
               CheckpointError);
}

TEST(BufReaderTest, ReadsBackWhatBufWriterWrote) {
  detail::BufWriter w("MAGC");
  w.put(std::uint32_t{3});
  w.put_bytes("abc", 3);
  const float values[2] = {1.5F, -0.0F};
  w.put(std::uint64_t{2});
  w.put_bytes(values, sizeof(values));
  const std::string bytes = w.finish();
  detail::BufReader r(bytes, "MAGC");
  EXPECT_EQ(r.get_string(r.get<std::uint32_t>()), "abc");
  const std::vector<float> got = r.get_vector<float>(r.get<std::uint64_t>());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 1.5F);
  EXPECT_TRUE(std::signbit(got[1]));
  EXPECT_TRUE(r.exhausted());
}

}  // namespace
}  // namespace nnr::serialize
