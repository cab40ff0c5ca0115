// RunResult (de)serialization: bitwise round-trip, key verification, and
// corruption detection — the persistence half of the cache-validity
// contract.
#include "serialize/run_result.h"

#include <cstring>

#include <gtest/gtest.h>

namespace nnr::serialize {
namespace {

core::RunResult sample_result() {
  core::RunResult r;
  r.test_predictions = {1, 0, 2, 2, 9};
  // Values chosen to exercise exact float bits, including a denormal-ish
  // small value and a negative zero.
  r.test_confidences = {0.1F, 1.0F, -0.0F, 1e-38F, 0.9999999F};
  r.final_weights = {3.14159265F, -2.71828182F};
  r.test_accuracy = 0.123456789012345;
  r.final_train_loss = 9.87654321e-3;
  return r;
}

TEST(RunResultTest, RoundTripIsBitwiseLossless) {
  const core::RunResult original = sample_result();
  const core::RunResult loaded = decode_run_result(
      encode_run_result(original, 0x1234, 0x5678), 0x1234, 0x5678, "<test>");
  EXPECT_EQ(loaded.test_predictions, original.test_predictions);
  // Vector equality on floats is bitwise-adjacent but -0.0 == 0.0; compare
  // the raw bit patterns to enforce the stronger contract.
  ASSERT_EQ(loaded.test_confidences.size(), original.test_confidences.size());
  for (std::size_t i = 0; i < original.test_confidences.size(); ++i) {
    EXPECT_EQ(std::memcmp(&loaded.test_confidences[i],
                          &original.test_confidences[i], sizeof(float)),
              0)
        << "confidence " << i << " changed bits";
  }
  EXPECT_EQ(loaded.final_weights, original.final_weights);
  EXPECT_EQ(loaded.test_accuracy, original.test_accuracy);
  EXPECT_EQ(loaded.final_train_loss, original.final_train_loss);
}

// Pins the documented layout: magic, two key words, three length-prefixed
// arrays, two doubles, the checksum trailer — and nothing else.
TEST(RunResultTest, EncodingHasTheDocumentedLayout) {
  const std::string bytes = encode_run_result(sample_result(), 1, 2);
  EXPECT_EQ(bytes.substr(0, 8), "NNRRSLT1");
  EXPECT_EQ(bytes.size(), 8u + 16u + (8u + 5u * 4u) + (8u + 5u * 4u) +
                              (8u + 2u * 4u) + 16u + 8u);
}

TEST(RunResultTest, EmptyVectorsRoundTrip) {
  const core::RunResult empty;
  const core::RunResult loaded =
      decode_run_result(encode_run_result(empty, 1, 2), 1, 2, "<test>");
  EXPECT_TRUE(loaded.test_predictions.empty());
  EXPECT_TRUE(loaded.final_weights.empty());
}

TEST(RunResultTest, KeyMismatchThrows) {
  const std::string bytes = encode_run_result(sample_result(), 0x1234, 0x5678);
  EXPECT_THROW((void)decode_run_result(bytes, 0x1234, 0x9999, "<test>"),
               CheckpointError);
  EXPECT_THROW((void)decode_run_result(bytes, 0x9999, 0x5678, "<test>"),
               CheckpointError);
}

TEST(RunResultTest, TruncationThrows) {
  const std::string bytes = encode_run_result(sample_result(), 1, 2);
  EXPECT_THROW(
      (void)decode_run_result(bytes.substr(0, bytes.size() / 2), 1, 2, "<t>"),
      CheckpointError);
}

TEST(RunResultTest, BitFlipThrows) {
  std::string bytes = encode_run_result(sample_result(), 1, 2);
  bytes[40] = static_cast<char>(bytes[40] ^ 1);
  EXPECT_THROW((void)decode_run_result(bytes, 1, 2, "<test>"),
               CheckpointError);
}

TEST(RunResultTest, WrongMagicThrows) {
  EXPECT_THROW(
      (void)decode_run_result("NOTANNRFILE_PADDING_PADDING", 1, 2, "<test>"),
      CheckpointError);
}

TEST(RunResultTest, DecodeRoundTripsInMemory) {
  const core::RunResult original = sample_result();
  const std::string bytes = encode_run_result(original, 7, 8);
  const core::RunResult decoded = decode_run_result(bytes, 7, 8, "<test>");
  EXPECT_EQ(decoded.test_predictions, original.test_predictions);
  EXPECT_EQ(decoded.final_weights, original.final_weights);
  EXPECT_EQ(decoded.test_accuracy, original.test_accuracy);
  EXPECT_THROW((void)decode_run_result(bytes, 7, 9, "<test>"),
               CheckpointError);
}

TEST(RunResultTest, ValidateRunResultBytesChecksEverything) {
  const std::string bytes = encode_run_result(sample_result(), 7, 8);
  EXPECT_TRUE(validate_run_result_bytes(bytes, 7, 8));
  EXPECT_FALSE(validate_run_result_bytes(bytes, 7, 9)) << "wrong key";
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x10;
  EXPECT_FALSE(validate_run_result_bytes(corrupt, 7, 8)) << "bit flip";
  EXPECT_FALSE(validate_run_result_bytes(bytes.substr(0, bytes.size() - 4),
                                         7, 8))
      << "truncation";
  EXPECT_FALSE(validate_run_result_bytes("junk", 7, 8));
}

}  // namespace
}  // namespace nnr::serialize
