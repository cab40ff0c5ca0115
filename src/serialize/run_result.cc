#include "serialize/run_result.h"

#include <vector>

#include "serialize/binary_io.h"

namespace nnr::serialize {
namespace {

constexpr std::string_view kResultMagic = "NNRRSLT1";

template <typename T>
void put_vector(detail::BufWriter& w, const std::vector<T>& v) {
  w.put(static_cast<std::uint64_t>(v.size()));
  if (!v.empty()) w.put_bytes(v.data(), v.size() * sizeof(T));
}

template <typename T>
std::vector<T> get_vector(detail::BufReader& r) {
  return r.get_vector<T>(r.get<std::uint64_t>());
}

}  // namespace

std::string encode_run_result(const core::RunResult& result,
                              std::uint64_t key_hi, std::uint64_t key_lo) {
  detail::BufWriter w(kResultMagic);
  w.put(key_hi);
  w.put(key_lo);
  put_vector(w, result.test_predictions);
  put_vector(w, result.test_confidences);
  put_vector(w, result.final_weights);
  w.put(result.test_accuracy);
  w.put(result.final_train_loss);
  return w.finish();
}

core::RunResult decode_run_result(std::string_view bytes,
                                  std::uint64_t key_hi, std::uint64_t key_lo,
                                  const std::string& label) {
  detail::BufReader r(bytes, kResultMagic, label);
  const auto stored_hi = r.get<std::uint64_t>();
  const auto stored_lo = r.get<std::uint64_t>();
  if (stored_hi != key_hi || stored_lo != key_lo) {
    throw CheckpointError("cached result key mismatch (entry belongs to a "
                          "different cell): " +
                          label);
  }
  core::RunResult result;
  result.test_predictions = get_vector<std::int32_t>(r);
  result.test_confidences = get_vector<float>(r);
  result.final_weights = get_vector<float>(r);
  result.test_accuracy = r.get<double>();
  result.final_train_loss = r.get<double>();
  if (!r.exhausted()) {
    throw CheckpointError("trailing bytes after result payload: " + label);
  }
  return result;
}

bool validate_run_result_bytes(std::string_view bytes, std::uint64_t key_hi,
                               std::uint64_t key_lo) {
  try {
    (void)decode_run_result(bytes, key_hi, key_lo, "<validate>");
    return true;
  } catch (const CheckpointError&) {
    return false;
  }
}

}  // namespace nnr::serialize
