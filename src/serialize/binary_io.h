// The one byte path behind every NNR persisted format (checkpoints, run
// results, the journal, the fleet queue snapshot, the daemon's shard
// identity) and the nnr_cached wire frame (net/frame.h): encode in memory,
// write with replace_file, read with read_file, decode from the bytes.
// Since a file holds exactly the encoding, the cache daemon ships entries
// over TCP and stores them verbatim.
//
// Binary formats are magic | body | u64 FNV-1a trailer over the body,
// built by BufWriter; BufReader verifies magic + checksum before handing
// out a byte, and checks every length field against the bytes left before
// allocating for it. float32 payloads are raw IEEE-754 bytes, so a
// round-trip is bitwise lossless, and any truncation or corruption is a
// CheckpointError instead of silently wrong data.
//
// replace_file writes `<path>.tmp<pid>.<tid>` (one name per writing process
// and thread), flushes and checks the stream, then renames it over `path`:
// readers see the old file or the new one, never a torn one. No fsync: a
// crash can lose the newest write, never expose a partial one. A writer
// killed before the rename leaves its temp file behind; temp_writer_alive
// lets a sweeper (FsCacheBackend::gc) tell that orphan from a live write.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "serialize/checkpoint.h"

namespace nnr::serialize {

/// The whole file at `path`; nullopt when it cannot be opened or read.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// Atomically replaces `path` with `bytes` through temp_path(path) (see the
/// header comment). False on any failure, leaving `path` untouched and no
/// temp file behind.
bool replace_file(const std::string& path, std::string_view bytes);

/// The temp name replace_file writes `path` through from this process and
/// thread: `<path>.tmp<pid>.<tid>`.
[[nodiscard]] std::string temp_path(const std::string& path);

/// True when the file name `name` has the temp-name shape (contains ".tmp").
[[nodiscard]] bool is_temp_name(std::string_view name);

/// True when the pid embedded in temp name `name` still names a live
/// process (alive, or present but not ours to signal). Unparsable pids
/// count as dead: such a file can only be an orphan from a crashed writer.
[[nodiscard]] bool temp_writer_alive(const std::string& name);

}  // namespace nnr::serialize

namespace nnr::serialize::detail {

/// Incremental FNV-1a (64-bit) over the serialized body.
class Fnv1a {
 public:
  void update(const void* data, std::size_t bytes) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Encodes into an in-memory string, with an arbitrary-length magic (file
/// formats use 8 bytes, the queue snapshot and the wire frame 4).
/// finish() returns the complete payload: magic | body | FNV-1a trailer.
class BufWriter {
 public:
  explicit BufWriter(std::string_view magic) { buf_.assign(magic); }

  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_bytes(&v, sizeof(T));
  }

  void put_bytes(const void* data, std::size_t bytes) {
    buf_.append(static_cast<const char*>(data), bytes);
    hash_.update(data, bytes);
  }

  [[nodiscard]] std::string finish() {
    const std::uint64_t digest = hash_.digest();
    buf_.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
    return std::move(buf_);
  }

 private:
  std::string buf_;
  Fnv1a hash_;
};

/// Decodes a payload (magic | body | trailer) after verifying magic and
/// checksum. The payload must outlive the reader — it is viewed, not
/// copied. `label` (a file path, "<wire frame>", ...) names the source in
/// error messages.
class BufReader {
 public:
  BufReader(std::string_view payload, std::string_view magic,
            std::string label = "<buffer>")
      : label_(std::move(label)), data_(payload.data()) {
    if (payload.size() < magic.size() + sizeof(std::uint64_t)) {
      throw CheckpointError("truncated checkpoint: " + label_);
    }
    if (std::memcmp(payload.data(), magic.data(), magic.size()) != 0) {
      throw CheckpointError(
          "bad magic (wrong or non-NNR checkpoint kind): " + label_);
    }
    body_end_ = payload.size() - sizeof(std::uint64_t);
    std::uint64_t stored = 0;
    std::memcpy(&stored, payload.data() + body_end_, sizeof(stored));
    Fnv1a hash;
    hash.update(payload.data() + magic.size(), body_end_ - magic.size());
    if (hash.digest() != stored) {
      throw CheckpointError("checksum mismatch (corrupt checkpoint): " +
                            label_);
    }
    pos_ = magic.size();
  }

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  void get_bytes(void* dst, std::size_t bytes) {
    need(bytes);
    if (bytes == 0) return;
    std::memcpy(dst, data_ + pos_, bytes);
    pos_ += bytes;
  }

  /// `count` elements of T read from the body. The count is checked
  /// against the unread bytes before anything is allocated.
  template <typename T>
  std::vector<T> get_vector(std::uint64_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining() / sizeof(T)) truncated();
    std::vector<T> v(static_cast<std::size_t>(count));
    get_bytes(v.data(), v.size() * sizeof(T));
    return v;
  }

  /// `len` raw bytes as a string, checked like get_vector.
  std::string get_string(std::size_t len) {
    need(len);
    std::string s(data_ + pos_, len);
    pos_ += len;
    return s;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == body_end_; }

  /// Unread body bytes (trailer excluded).
  [[nodiscard]] std::size_t remaining() const noexcept {
    return body_end_ - pos_;
  }

 private:
  void need(std::size_t bytes) const {
    if (bytes > remaining()) truncated();
  }

  [[noreturn]] void truncated() const {
    throw CheckpointError("truncated checkpoint body: " + label_);
  }

  std::string label_;
  const char* data_ = nullptr;
  std::size_t body_end_ = 0;
  std::size_t pos_ = 0;
};

}  // namespace nnr::serialize::detail
