// Seeded mutation fuzzing of every decoder that reads bytes from outside
// the process: wire frames, cache entries, model and training-state
// checkpoints, the fleet queue snapshot, the access journal and the fault
// spec. Each target starts from valid encodings; a Philox stream
// (rng/philox.h) drives bit flips, truncation, extension and overwritten
// length fields. For checksummed formats half the mutants are re-sealed
// with a fresh FNV-1a trailer, so they get past the checksum to the
// structural checks behind it.
//
// The invariant: every input is accepted or rejected through the decoder's
// documented error path (CheckpointError, a discarded snapshot, skipped
// journal lines, nullopt) — never a crash, an escaping exception of another
// type, or, under the ASan/UBSan CI job, undefined behaviour. An accepted
// binary input must also be canonical: re-encoding what was decoded gives
// back the input byte for byte.
#include <cctype>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/fault_injector.h"
#include "net/frame.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "opt/sgd.h"
#include "rng/philox.h"
#include "sched/fleet_queue.h"
#include "serialize/binary_io.h"
#include "serialize/checkpoint.h"
#include "serialize/journal.h"
#include "serialize/run_result.h"

namespace nnr::serialize {
namespace {

namespace fs = std::filesystem;

/// Mutants per target: a few seconds for all targets under ASan.
constexpr int kIterations = 2000;
constexpr std::uint64_t kSeed = 0x5eedf022;

/// A length (or count) field of a valid encoding: byte offset and width.
struct Field {
  std::size_t offset;
  std::size_t width;
};

/// Tallies both outcomes so each target can prove the fuzzer reached
/// past the checksum (some mutants accepted) as well as the error paths.
struct Outcomes {
  int accepted = 0;
  int rejected = 0;
};

class Mutator {
 public:
  /// `magic` is the length of the format's magic, or 0 for formats with
  /// no checksum trailer (those are never re-sealed).
  Mutator(std::uint64_t stream, std::size_t magic)
      : rng_(kSeed, stream), magic_(magic) {}

  std::string mutate(std::string bytes, const std::vector<Field>& lengths) {
    const std::uint32_t rounds = 1 + below(3);
    for (std::uint32_t i = 0; i < rounds; ++i) mutate_once(bytes, lengths);
    if (magic_ > 0 && below(2) == 0) reseal(bytes);
    return bytes;
  }

 private:
  std::uint32_t below(std::uint32_t n) { return rng_() % n; }

  void mutate_once(std::string& bytes, const std::vector<Field>& lengths) {
    switch (below(5)) {
      case 0:  // flip one bit
        if (!bytes.empty()) {
          bytes[below(static_cast<std::uint32_t>(bytes.size()))] ^=
              static_cast<char>(1u << below(8));
        }
        break;
      case 1:  // truncate
        bytes.resize(below(static_cast<std::uint32_t>(bytes.size()) + 1));
        break;
      case 2:  // extend with random bytes
        for (std::uint32_t n = 1 + below(16); n > 0; --n) {
          bytes.push_back(static_cast<char>(rng_()));
        }
        break;
      case 3:  // overwrite a length field (or a random word) with an extreme
        overwrite_length(bytes, lengths);
        break;
      default:  // overwrite a random byte
        if (!bytes.empty()) {
          bytes[below(static_cast<std::uint32_t>(bytes.size()))] =
              static_cast<char>(rng_());
        }
        break;
    }
  }

  void overwrite_length(std::string& bytes, const std::vector<Field>& lengths) {
    Field field{0, below(2) == 0 ? 4u : 8u};
    if (!lengths.empty() && below(4) != 0) {
      field = lengths[below(static_cast<std::uint32_t>(lengths.size()))];
    } else if (bytes.size() > field.width) {
      field.offset =
          below(static_cast<std::uint32_t>(bytes.size() - field.width));
    }
    if (field.offset + field.width > bytes.size()) return;
    const std::uint64_t extremes[] = {0,
                                      1,
                                      0x7FFFFFFFull,
                                      0xFFFFFFFFull,
                                      0x8000000000000000ull,
                                      ~std::uint64_t{0},
                                      bytes.size(),
                                      bytes.size() / 2,
                                      std::uint64_t{1} << 40};
    const std::uint64_t value =
        extremes[below(static_cast<std::uint32_t>(std::size(extremes)))];
    std::memcpy(bytes.data() + field.offset, &value, field.width);
  }

  /// Recomputes the FNV-1a trailer over the (mutated) body.
  void reseal(std::string& bytes) const {
    if (bytes.size() < magic_ + sizeof(std::uint64_t)) return;
    const std::size_t body_end = bytes.size() - sizeof(std::uint64_t);
    detail::Fnv1a hash;
    hash.update(bytes.data() + magic_, body_end - magic_);
    const std::uint64_t digest = hash.digest();
    std::memcpy(bytes.data() + body_end, &digest, sizeof(digest));
  }

  rng::Philox rng_;
  std::size_t magic_;
};

/// Runs `decode` on kIterations mutants of `valid` (round robin). `decode`
/// returns true when the input was accepted; a CheckpointError counts as
/// a rejection; any other exception fails the test.
Outcomes fuzz(std::uint64_t stream, std::size_t magic,
              const std::vector<std::string>& valid,
              const std::vector<std::vector<Field>>& lengths,
              const std::function<bool(const std::string&)>& decode) {
  Mutator mutator(stream, magic);
  Outcomes outcomes;
  for (int i = 0; i < kIterations; ++i) {
    const std::size_t which = static_cast<std::size_t>(i) % valid.size();
    const std::string input = mutator.mutate(valid[which], lengths[which]);
    try {
      if (decode(input)) {
        ++outcomes.accepted;
      } else {
        ++outcomes.rejected;
      }
    } catch (const CheckpointError&) {
      ++outcomes.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << i << ": escaped " << e.what();
    }
  }
  return outcomes;
}

void expect_both_paths(const Outcomes& o) {
  EXPECT_GT(o.accepted, 0) << "no mutant got past the checksum";
  EXPECT_GT(o.rejected, 0);
}

class DecoderFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("nnr_decoder_fuzz_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

core::RunResult sample_result() {
  core::RunResult r;
  r.test_predictions = {4, 0, 7};
  r.test_confidences = {0.5F, -0.0F, 1e-38F};
  r.final_weights = {1.5F, -2.25F};
  r.test_accuracy = 0.625;
  r.final_train_loss = 0.03125;
  return r;
}

/// Offsets of the three array counts in an encoded RunResult.
std::vector<Field> run_result_lengths(const core::RunResult& r) {
  const std::size_t predictions = 8 + 16;
  const std::size_t confidences =
      predictions + 8 + r.test_predictions.size() * 4;
  const std::size_t weights = confidences + 8 + r.test_confidences.size() * 4;
  return {{predictions, 8}, {confidences, 8}, {weights, 8}};
}

TEST_F(DecoderFuzz, WireFrames) {
  const std::string put_body = encode_run_result(sample_result(), 3, 4);
  std::vector<std::string> valid;
  for (const auto& [op, body] :
       std::vector<std::pair<std::uint8_t, std::string>>{
           {1, ""}, {2, "abc"}, {5, put_body}}) {
    valid.push_back(net::encode_frame(op, body).substr(sizeof(std::uint32_t)));
  }
  const Outcomes o = fuzz(1, net::kFrameMagic.size(), valid,
                          std::vector<std::vector<Field>>(valid.size()),
                          [](const std::string& payload) {
                            const net::Frame f = net::decode_frame(payload);
                            EXPECT_EQ(net::encode_frame(f.opcode, f.body)
                                          .substr(sizeof(std::uint32_t)),
                                      payload);
                            return true;
                          });
  expect_both_paths(o);
}

TEST_F(DecoderFuzz, RunResults) {
  const core::RunResult full = sample_result();
  const core::RunResult empty;
  const std::vector<std::string> valid = {encode_run_result(full, 3, 4),
                                          encode_run_result(empty, 3, 4)};
  const Outcomes o =
      fuzz(2, 8, valid, {run_result_lengths(full), run_result_lengths(empty)},
           [](const std::string& bytes) {
             const core::RunResult r = decode_run_result(bytes, 3, 4, "<fuzz>");
             EXPECT_EQ(encode_run_result(r, 3, 4), bytes);
             return true;
           });
  expect_both_paths(o);
}

/// Params, BN buffers and (under SGD with momentum) optimizer slots — every
/// entry kind the checkpoint formats hold, in a few hundred bytes.
nn::Model tiny_model() {
  nn::Model m;
  m.add(std::make_unique<nn::Dense>(3, 2));
  m.add(std::make_unique<nn::BatchNorm2D>(2));
  return m;
}

TEST_F(DecoderFuzz, ModelCheckpointsViaAFile) {
  nn::Model model = tiny_model();
  const std::string seed_file = path("seed.ckpt");
  save_model(seed_file, model);
  const std::vector<std::string> valid = {*read_file(seed_file)};
  // The entry count, then the first entry's name length.
  const std::vector<Field> lengths = {{8, 4}, {16, 4}};
  const std::string file = path("mutant.ckpt");
  const std::string resaved = path("resaved.ckpt");
  const Outcomes o = fuzz(3, 8, valid, {lengths}, [&](const std::string& in) {
    EXPECT_TRUE(replace_file(file, in));
    nn::Model target = tiny_model();
    load_model(file, target);
    save_model(resaved, target);
    EXPECT_EQ(read_file(resaved).value_or(""), in);
    return true;
  });
  expect_both_paths(o);
}

TEST_F(DecoderFuzz, TrainingStatesViaAFile) {
  nn::Model model = tiny_model();
  opt::Sgd sgd(model.params(), /*momentum=*/0.9F);
  const std::string seed_file = path("seed.trns");
  save_training_state(seed_file, model, sgd);
  const std::vector<std::string> valid = {*read_file(seed_file)};
  // Step counter, entry count, slot count, then the first name length.
  const std::vector<Field> lengths = {{8, 8}, {16, 4}, {20, 4}, {28, 4}};
  const std::string file = path("mutant.trns");
  const std::string resaved = path("resaved.trns");
  const Outcomes o = fuzz(4, 8, valid, {lengths}, [&](const std::string& in) {
    EXPECT_TRUE(replace_file(file, in));
    nn::Model target = tiny_model();
    opt::Sgd target_sgd(target.params(), 0.9F);
    load_training_state(file, target, target_sgd);
    save_training_state(resaved, target, target_sgd);
    EXPECT_EQ(read_file(resaved).value_or(""), in);
    return true;
  });
  expect_both_paths(o);
}

TEST_F(DecoderFuzz, FleetQueueSnapshotsViaAFile) {
  const std::string snapshot = path("fleet_queue.nnrq");
  {
    sched::FleetQueue q(snapshot);
    std::vector<sched::FleetWorkItem> items;
    for (std::uint64_t n = 1; n <= 3; ++n) {
      items.push_back({sched::CellKey{n, n * 7}, n == 2 ? "table2" : "fig2",
                       static_cast<std::uint32_t>(n), 0});
    }
    q.submit(items, nullptr);
    ASSERT_TRUE(q.report(items[1].key, sched::FleetQueue::Outcome::kFailed));
    ASSERT_TRUE(q.report(items[2].key, sched::FleetQueue::Outcome::kServed));
  }
  const std::vector<std::string> valid = {*read_file(snapshot)};
  // The item count, then the first item's study length.
  const std::vector<Field> lengths = {{8, 8}, {32, 4}};
  const std::string file = path("mutant.nnrq");
  const Outcomes o = fuzz(5, 4, valid, {lengths}, [&](const std::string& in) {
    EXPECT_TRUE(replace_file(file, in));
    sched::FleetQueue q(file);
    q.load();  // a corrupt snapshot is discarded, never thrown
    const sched::FleetQueue::Stats s = q.stats();
    EXPECT_EQ(s.pending + s.leased + s.done, s.total);
    EXPECT_EQ(s.trained + s.served + s.failed, s.done);
    // Draining a restored queue terminates and hands out each item once.
    std::uint64_t fetched = 0;
    while (q.fetch_next([](const sched::CellKey&) { return true; })) {
      if (++fetched > s.total) break;
    }
    EXPECT_EQ(fetched, s.pending);
    return s.total > 0;
  });
  expect_both_paths(o);
}

TEST_F(DecoderFuzz, AccessJournals) {
  const std::vector<std::string> valid = {
      "0123456789abcdef0123456789abcdef\nfedcba9876543210fedcba9876543210\n"
      "0123456789abcdef0123456789abcdef\n",
      "00000000000000000000000000000001\n0000000000000000"};
  const std::string file = path("access.journal");
  const AccessJournal journal(file);
  const Outcomes o = fuzz(6, 0, valid, {{}, {}}, [&](const std::string& in) {
    EXPECT_TRUE(replace_file(file, in));
    const std::vector<std::string> tokens = journal.read();
    for (const std::string& token : tokens) {
      EXPECT_FALSE(token.empty());
      for (const char c : token) {
        EXPECT_TRUE(std::isgraph(static_cast<unsigned char>(c)))
            << "a malformed line must be skipped, not returned";
      }
    }
    return !tokens.empty();
  });
  EXPECT_GT(o.accepted, 0);
}

TEST_F(DecoderFuzz, FaultSpecs) {
  const std::vector<std::string> valid = {
      "drop=0.05,delay_ms=20:0.10,corrupt=0.02,reset=0.02,seed=7",
      "delay_ms=10000", "seed=18446744073709551615", "reset=1"};
  const auto in_unit = [](double p) { return p >= 0.0 && p <= 1.0; };
  const Outcomes o =
      fuzz(7, 0, valid, std::vector<std::vector<Field>>(valid.size()),
           [&](const std::string& in) {
             const auto spec = net::FaultSpec::parse(in);
             if (!spec.has_value()) return false;
             EXPECT_TRUE(in_unit(spec->drop) && in_unit(spec->corrupt) &&
                         in_unit(spec->reset) && in_unit(spec->delay_prob))
                 << in;
             EXPECT_LE(spec->delay_ms, 10'000u) << in;
             return true;
           });
  expect_both_paths(o);
}

}  // namespace
}  // namespace nnr::serialize
