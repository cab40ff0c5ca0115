// A child nnr_cached process, owned for the benchmark's lifetime.
//
// The daemon is the real built binary, started on an ephemeral loopback
// port; its "listening on HOST:PORT" stdout line is the startup contract.
// The child is tied to the benchmark (it dies with it), and the destructor
// stops it with SIGTERM and reaps it, so no run leaves a process behind.
#pragma once

#include <sys/types.h>

#include <string>

namespace perfbench {

class Daemon {
 public:
  /// Starts `binary --dir dir --port 0` and waits for its listening line.
  /// Throws std::runtime_error when it fails to start within 10 s.
  Daemon(const std::string& binary, const std::string& dir);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& url() const noexcept { return url_; }
  /// User plus system CPU the daemon has used so far (from /proc).
  [[nodiscard]] double cpu_s() const;
  /// SIGTERM, then reap (SIGKILL after 5 s). Idempotent.
  void stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;  // read end of the child's stdout
  std::string url_;
};

}  // namespace perfbench
