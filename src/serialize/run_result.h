// Persistence of a single replicate's training outcome (core::RunResult) —
// the payload of the study-level replicate cache (sched/cache_backend.h).
//
// Cache-validity contract: the round-trip is *bitwise* lossless (raw IEEE-754
// float payloads, never text), so a replicate loaded from disk is
// indistinguishable from the replicate that was trained — the determinism
// contract of PR 2 extends to cached results, and tests enforce
// load-vs-recompute bitwise equality. Each file embeds the 128-bit content
// key of the cell that produced it, so a cache entry can never be replayed
// against a different cell, even after a file rename.
//
// The same byte stream exists in two places: as a file under the cache dir
// (FsCacheBackend, which writes it with serialize::replace_file and reads it
// with serialize::read_file) and as the GET/PUT payload of the nnr_cached
// wire protocol (RemoteCacheBackend). There is one encoder and one decoder,
// so the daemon can store a PUT body verbatim and serve a GET straight from
// the file — no re-encoding, no trust: every consumer re-verifies magic,
// checksum, and embedded key.
//
// Format (little-endian):
//   magic "NNRRSLT1"
//   u64 key_hi | u64 key_lo
//   u64 n_predictions | i32 predictions[n]
//   u64 n_confidences | f32 confidences[n]
//   u64 n_weights     | f32 weights[n]
//   f64 test_accuracy | f64 final_train_loss
//   trailer: u64 FNV-1a over everything after the magic
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/trainer.h"
#include "serialize/checkpoint.h"

namespace nnr::serialize {

/// The complete encoding of `result` (magic | body | checksum trailer),
/// stamped with the cell content key: the cache entry file's bytes and the
/// PUT payload of the remote cache protocol.
[[nodiscard]] std::string encode_run_result(const core::RunResult& result,
                                            std::uint64_t key_hi,
                                            std::uint64_t key_lo);

/// Decodes bytes produced by encode_run_result. Throws CheckpointError on
/// magic or checksum mismatch, truncation, a length field that overruns the
/// payload, trailing bytes, or when the embedded key differs from
/// (key_hi, key_lo) — the caller asked for a different cell's result.
/// `label` (the file path, "<wire>", ...) names the source in error
/// messages.
[[nodiscard]] core::RunResult decode_run_result(std::string_view bytes,
                                                std::uint64_t key_hi,
                                                std::uint64_t key_lo,
                                                const std::string& label);

/// True when `bytes` is a complete, checksum-valid RunResult stamped with
/// (key_hi, key_lo). The daemon runs this on every PUT body before letting
/// it touch the cache dir, so a buggy or malicious client cannot poison an
/// entry another client would later trust.
[[nodiscard]] bool validate_run_result_bytes(std::string_view bytes,
                                             std::uint64_t key_hi,
                                             std::uint64_t key_lo);

}  // namespace nnr::serialize
