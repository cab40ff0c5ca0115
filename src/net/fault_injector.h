// Deterministic fault injection for the cache wire (chaos testing).
//
// A FaultInjector turns a parseable spec into a replayable stream of
// per-I/O fault decisions, driven by the same Philox4x32-10 generator the
// experiment harness uses for training noise (rng/philox.h): decision i is
// a pure function of (seed, i), so the exact same spec + seed reproduces
// the exact same fault sequence — a chaos failure is a regression test,
// not an anecdote.
//
// Spec grammar (comma-separated key=value tokens, any order, all optional):
//
//   drop=P          P in [0,1]: a send vanishes after being accepted
//                   (models packet loss — the peer times out)
//   corrupt=P       one bit of the sent bytes flips (the frame checksum
//                   catches it; the receiver drops the connection)
//   reset=P         the connection is hard-reset (SO_LINGER 0 -> RST)
//   delay_ms=D:P    with probability P the call sleeps D ms first
//                   (P defaults to 1 when ":P" is omitted; D <= 10000)
//   seed=N          Philox seed (default 0)
//
// Example: drop=0.05,delay_ms=20:0.10,corrupt=0.02,reset=0.02,seed=7
//
// Send-side calls draw the full decision (drop/corrupt/reset/delay);
// receive-side calls apply only delay and reset — losing or flipping bytes
// is something the network does to the *sender's* data, and modeling it
// once keeps the event stream replayable.
//
// Installation: process-global seam. Socket I/O calls
// FaultInjector::active(), which is a single relaxed atomic load once the
// one-time NNR_FAULT_SPEC env check has run — zero cost when off (the
// common case: no injector, nullptr, no decision drawn). Tests install a
// local injector with ScopedInstall.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace nnr::net {

struct FaultSpec {
  double drop = 0.0;
  double corrupt = 0.0;
  double reset = 0.0;
  double delay_prob = 0.0;
  std::uint32_t delay_ms = 0;
  std::uint64_t seed = 0;

  /// True when any fault can actually fire.
  [[nodiscard]] bool any() const noexcept {
    return drop > 0.0 || corrupt > 0.0 || reset > 0.0 ||
           (delay_prob > 0.0 && delay_ms > 0);
  }

  /// Parses the spec grammar above. nullopt on any malformed token, an
  /// out-of-range probability, or delay_ms > 10000 (a typo'd delay must
  /// not wedge a daemon for minutes per frame).
  static std::optional<FaultSpec> parse(std::string_view text);

  /// The spec back in grammar form, canonically: only effective fields are
  /// emitted (a fault with probability 0, a delay that can never fire, or
  /// seed 0 all disappear), delay is `delay_ms=D` when its probability is
  /// 1, a probability prints as the shortest fixed-notation digits that
  /// parse back to the same double. The law the tests hold this to:
  /// parse(to_string()) reproduces every effective field, so
  /// a logged spec can be replayed verbatim. An all-defaults spec prints
  /// as "" (which parse() accepts as the no-fault spec).
  [[nodiscard]] std::string to_string() const;
};

/// What one I/O call should suffer. At most one of drop/corrupt/reset is
/// set (priority reset > drop > corrupt — a reset makes the others moot);
/// delay is drawn independently and composes with any of them.
struct FaultDecision {
  bool drop = false;
  bool corrupt = false;
  bool reset = false;
  std::uint32_t delay_ms = 0;
  /// Which bit of the outgoing bytes to flip (mod 8 * size at the site).
  std::uint64_t corrupt_bit = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec) noexcept : spec_(spec) {}

  /// Decision for event `index` — pure, replayable, thread-safe.
  [[nodiscard]] FaultDecision decide(std::uint64_t index) const noexcept;

  /// Draws the next decision in this injector's event stream and bumps
  /// the observability counters.
  FaultDecision next() noexcept;

  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }

  // Observability: how many events were drawn / faults actually fired.
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  [[nodiscard]] std::uint64_t corrupts() const noexcept { return corrupts_; }
  [[nodiscard]] std::uint64_t resets() const noexcept { return resets_; }
  [[nodiscard]] std::uint64_t delays() const noexcept { return delays_; }

  /// The injector Socket I/O consults: nullptr when faults are off. The
  /// first call performs the one-time NNR_FAULT_SPEC check; after that it
  /// is one atomic load.
  [[nodiscard]] static FaultInjector* active() noexcept;

  /// Installs `next` as the process-global injector (nullptr disarms);
  /// returns the previous one. Prefer ScopedInstall in tests.
  static FaultInjector* install(FaultInjector* next) noexcept;

  /// RAII install/restore for tests.
  class ScopedInstall {
   public:
    explicit ScopedInstall(FaultInjector* injector) noexcept
        : prev_(install(injector)) {}
    ~ScopedInstall() { (void)install(prev_); }
    ScopedInstall(const ScopedInstall&) = delete;
    ScopedInstall& operator=(const ScopedInstall&) = delete;

   private:
    FaultInjector* prev_;
  };

 private:
  FaultSpec spec_;
  std::atomic<std::uint64_t> counter_{0};
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> corrupts_{0};
  std::atomic<std::uint64_t> resets_{0};
  std::atomic<std::uint64_t> delays_{0};
};

}  // namespace nnr::net
