#include "daemon.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

namespace perfbench {

Daemon::Daemon(const std::string& binary, const std::string& dir) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  // argv is built before fork: the child only calls async-signal-safe
  // functions until exec.
  std::vector<std::string> args = {binary, "--dir", dir, "--port", "0"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);  // parent already gone
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd_ = fds[0];

  // Read the startup line: "nnr_cached listening on 127.0.0.1:PORT".
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd pfd{out_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) break;
    char buf[256];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    line.append(buf, static_cast<std::size_t>(n));
  }
  const std::string marker = "listening on ";
  const auto at = line.find(marker);
  const auto nl = line.find('\n');
  if (at == std::string::npos || nl == std::string::npos) {
    stop();
    throw std::runtime_error("nnr_cached did not start: " + binary);
  }
  url_ = "tcp://" + line.substr(at + marker.size(), nl - at - marker.size());
}

Daemon::~Daemon() { stop(); }

double Daemon::cpu_s() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto paren = stat.rfind(')');
  if (paren == std::string::npos) return 0.0;
  // Fields after "(comm)": state is field 3; utime and stime are 14, 15.
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void Daemon::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 500 && !reaped; ++i) {
      reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

}  // namespace perfbench
