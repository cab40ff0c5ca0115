// Append-only access journal — the persistence record behind the replicate
// cache's LRU eviction (sched/fs_cache_backend.h).
//
// On-disk format: plain text, one short token per LF-terminated line (for
// the cache: the 32-hex-char entry key). File order IS access order —
// oldest first, duplicates kept, the LAST occurrence of a token being its
// most recent access. Tokens are appended with O_APPEND so concurrent
// writers — pool workers in one process, several nnr_run processes sharing
// a cache dir, or the nnr_cached daemon fronting it — never interleave
// within a record. Readers tolerate a torn trailing line (a
// writer killed mid-append): malformed lines are skipped, never fatal,
// matching the cache's "accelerator, not correctness dependency" policy.
// Compaction (rewrite) goes through serialize::replace_file (temp file +
// rename, serialize/binary_io.h), so a reader always sees
// either the old journal or the new one; callers serialize compaction
// against other *writers* with the cache-wide lock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nnr::serialize {

class AccessJournal {
 public:
  explicit AccessJournal(std::string path);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Appends `token` as one line. Best-effort: I/O failure is swallowed
  /// (a lost journal record only weakens LRU ordering, never correctness).
  /// `token` must be non-empty and contain no '\n'.
  void append(const std::string& token) const noexcept;

  /// All well-formed tokens in file order (oldest first, duplicates kept —
  /// the LAST occurrence of a token is its most recent access). A missing
  /// journal reads as empty.
  [[nodiscard]] std::vector<std::string> read() const;

  /// Replaces the journal with exactly `tokens`, one per line (compaction).
  /// Atomic via serialize::replace_file; best-effort like append. Appends do
  /// NOT take any lock, so a record landing between the caller's read()
  /// and this rename is discarded — callers serialize rewrites against
  /// each other (cache-wide lock) and should skip the rewrite when the
  /// journal grew under them to shrink that window; a record lost in the
  /// residual window costs one entry's LRU rank, never correctness.
  void rewrite(const std::vector<std::string>& tokens) const noexcept;

  /// Current journal size in bytes (0 when missing) — the compaction
  /// trigger.
  [[nodiscard]] std::int64_t size_bytes() const noexcept;

 private:
  std::string path_;
};

}  // namespace nnr::serialize
