#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace perfbench {
namespace {

/// Small stable id for the calling thread (0 for the first caller).
int thread_slot() {
  static std::atomic<int> next{0};
  thread_local const int slot = next.fetch_add(1);
  return slot;
}

void write_json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", static_cast<unsigned>(c));
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

}  // namespace

int Tracer::add(std::string name, double start, double end, int parent,
                std::string request) {
  const int thread = thread_slot();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), start, end, parent,
                        std::move(request), thread});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::open(std::string name, int parent, std::string request) {
  const double start = now_s();
  return add(std::move(name), start, start, parent, std::move(request));
}

void Tracer::close(int span) {
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(span)].end = end;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      covered[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    t.self_s += std::max(0.0, spans_[i].end - spans_[i].start - covered[i]);
    ++t.count;
  }
  return out;
}


bool Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s{\"name\": ", i == 0 ? "" : ",\n");
    write_json_string(f, s.name);
    std::fprintf(f,
                 ", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, "
                 "\"request\": ",
                 s.thread, (s.start - origin) * 1e6, (s.end - s.start) * 1e6,
                 i, s.parent);
    write_json_string(f, s.request);
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
