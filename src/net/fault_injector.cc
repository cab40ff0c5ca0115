#include "net/fault_injector.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "rng/philox.h"

namespace nnr::net {

namespace {

std::atomic<FaultInjector*> g_active{nullptr};

/// Maps a 32-bit word to [0, 1): the (w + 0.5) * 2^-32 convention keeps 0
/// and 1 unreachable, so probability-0 faults can never fire and
/// probability-1 faults always do.
double u01(std::uint32_t w) noexcept { return (w + 0.5) * 0x1p-32; }

/// Parses "K" or "K.FRAC" into a probability; nullopt outside [0, 1] or on
/// any non-numeric character. Hand-rolled so a locale can't change what a
/// spec means.
std::optional<double> parse_prob(std::string_view text) {
  if (text.empty()) return std::nullopt;
  double value = 0.0;
  std::size_t i = 0;
  bool digits = false;
  for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
    value = value * 10.0 + (text[i] - '0');
    digits = true;
  }
  if (i < text.size() && text[i] == '.') {
    ++i;
    double scale = 0.1;
    for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
      value += (text[i] - '0') * scale;
      scale *= 0.1;
      digits = true;
    }
  }
  if (!digits || i != text.size() || value < 0.0 || value > 1.0) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    if (value > (~std::uint64_t{0} - (c - '0')) / 10) return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

/// One-time NNR_FAULT_SPEC check. A process-lifetime injector (never
/// freed) backs the env path so active() can hand out a raw pointer.
void load_env_injector() noexcept {
  const char* text = std::getenv("NNR_FAULT_SPEC");
  if (text == nullptr || *text == '\0') return;
  const auto spec = FaultSpec::parse(text);
  if (!spec.has_value()) {
    std::fprintf(stderr,
                 "[fault] ignoring malformed NNR_FAULT_SPEC '%s' "
                 "(grammar: drop=P,delay_ms=D:P,corrupt=P,reset=P,seed=N)\n",
                 text);
    return;
  }
  if (!spec->any()) return;
  static FaultInjector env_injector(*spec);
  g_active.store(&env_injector, std::memory_order_release);
  std::fprintf(stderr, "[fault] injector armed: %s\n", text);
}

void ensure_env_checked() noexcept {
  static const bool checked = [] {
    load_env_injector();
    return true;
  }();
  (void)checked;
}

}  // namespace

std::optional<FaultSpec> FaultSpec::parse(std::string_view text) {
  // Every token is optional, so the empty spec is valid — and harmless:
  // any() is false, nothing ever fires.
  if (text.empty()) return FaultSpec{};
  FaultSpec spec;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string_view token = text.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) return std::nullopt;
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "drop" || key == "corrupt" || key == "reset") {
      const auto p = parse_prob(value);
      if (!p.has_value()) return std::nullopt;
      (key == "drop" ? spec.drop
                     : key == "corrupt" ? spec.corrupt : spec.reset) = *p;
    } else if (key == "delay_ms") {
      // "D" or "D:P" — a bare delay fires on every call.
      const std::size_t colon = value.find(':');
      const auto ms = parse_u64(value.substr(0, colon));
      if (!ms.has_value() || *ms > 10'000) return std::nullopt;
      spec.delay_ms = static_cast<std::uint32_t>(*ms);
      if (colon == std::string_view::npos) {
        spec.delay_prob = 1.0;
      } else {
        const auto p = parse_prob(value.substr(colon + 1));
        if (!p.has_value()) return std::nullopt;
        spec.delay_prob = *p;
      }
    } else if (key == "seed") {
      const auto seed = parse_u64(value);
      if (!seed.has_value()) return std::nullopt;
      spec.seed = *seed;
    } else {
      return std::nullopt;
    }
    if (comma == text.size()) break;
  }
  return spec;
}

std::string FaultSpec::to_string() const {
  // A probability prints as the shortest fixed-notation digits that
  // parse_prob's digit-by-digit accumulation maps back to the same double,
  // so a value that came out of parse() survives the round trip bit-exactly
  // however fine it is (a tiny armed fault never logs as "0"). A value no
  // decimal string parses to exactly (a hand-built 1/3) prints as the
  // closest one. The grammar has no exponent form, hence fixed notation and
  // up to 330 decimals, enough for the smallest subnormal. snprintf's
  // digits are locale-independent; only the separator follows LC_NUMERIC,
  // which this repo never sets.
  const auto prob = [](double p) {
    constexpr int kMaxDecimals = 330;
    std::string best;
    double best_err = 2.0;
    for (int decimals = 0; decimals <= kMaxDecimals; ++decimals) {
      char buf[kMaxDecimals + 8];
      std::snprintf(buf, sizeof(buf), "%.*f", decimals, p);
      std::string s(buf);
      if (decimals > 0) {
        while (s.back() == '0') s.pop_back();
        if (s.back() == '.') s.pop_back();
      }
      const double back = parse_prob(s).value_or(-1.0);
      if (back == p) return s;
      if (std::abs(back - p) < best_err) {
        best_err = std::abs(back - p);
        best = std::move(s);
      }
    }
    return best;
  };
  std::string out;
  const auto add = [&out](const std::string& token) {
    if (!out.empty()) out += ',';
    out += token;
  };
  if (drop > 0.0) add("drop=" + prob(drop));
  if (corrupt > 0.0) add("corrupt=" + prob(corrupt));
  if (reset > 0.0) add("reset=" + prob(reset));
  if (delay_prob > 0.0 && delay_ms > 0) {
    std::string token = "delay_ms=" + std::to_string(delay_ms);
    if (delay_prob < 1.0) token += ":" + prob(delay_prob);
    add(token);
  }
  if (seed != 0) add("seed=" + std::to_string(seed));
  return out;
}

FaultDecision FaultInjector::decide(std::uint64_t index) const noexcept {
  const rng::Key2x32 key = {static_cast<std::uint32_t>(spec_.seed),
                            static_cast<std::uint32_t>(spec_.seed >> 32)};
  // Domain tag in ctr[2] keeps this stream disjoint from any training
  // stream a test might run under the same seed.
  const rng::Counter4x32 draws = rng::philox4x32_10(
      {static_cast<std::uint32_t>(index),
       static_cast<std::uint32_t>(index >> 32), 0x464C5401u, 0},
      key);
  FaultDecision d;
  if (u01(draws[0]) < spec_.reset) {
    d.reset = true;
  } else if (u01(draws[1]) < spec_.drop) {
    d.drop = true;
  } else if (u01(draws[2]) < spec_.corrupt) {
    d.corrupt = true;
    const rng::Counter4x32 bit = rng::philox4x32_10(
        {static_cast<std::uint32_t>(index),
         static_cast<std::uint32_t>(index >> 32), 0x464C5402u, 0},
        key);
    d.corrupt_bit = bit[0] | (static_cast<std::uint64_t>(bit[1]) << 32);
  }
  if (u01(draws[3]) < spec_.delay_prob) d.delay_ms = spec_.delay_ms;
  return d;
}

FaultDecision FaultInjector::next() noexcept {
  const std::uint64_t index =
      counter_.fetch_add(1, std::memory_order_relaxed);
  const FaultDecision d = decide(index);
  events_.fetch_add(1, std::memory_order_relaxed);
  if (d.reset) resets_.fetch_add(1, std::memory_order_relaxed);
  if (d.drop) drops_.fetch_add(1, std::memory_order_relaxed);
  if (d.corrupt) corrupts_.fetch_add(1, std::memory_order_relaxed);
  if (d.delay_ms > 0) delays_.fetch_add(1, std::memory_order_relaxed);
  return d;
}

FaultInjector* FaultInjector::active() noexcept {
  ensure_env_checked();
  return g_active.load(std::memory_order_acquire);
}

FaultInjector* FaultInjector::install(FaultInjector* next) noexcept {
  // Resolve the env injector first so a ScopedInstall's "previous" state
  // is what active() would actually have returned.
  ensure_env_checked();
  return g_active.exchange(next, std::memory_order_acq_rel);
}

}  // namespace nnr::net
