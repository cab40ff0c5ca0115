// FaultInjector: the spec grammar, the determinism contract (same spec +
// seed => the exact same fault schedule, the whole point of Philox-driven
// chaos), rate sanity over many draws, and the Socket seam — injected
// drops/corruption/resets/delays must surface through real loopback I/O
// exactly as the fault model documents.
#include "net/fault_injector.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "net/socket.h"

namespace nnr::net {
namespace {

// ---------------------------------------------------------------- parsing

TEST(FaultSpecTest, ParsesTheFullExampleSpec) {
  const auto spec =
      FaultSpec::parse("drop=0.05,delay_ms=20:0.10,corrupt=0.02,reset=0.02,seed=7");
  ASSERT_TRUE(spec.has_value());
  EXPECT_DOUBLE_EQ(spec->drop, 0.05);
  EXPECT_DOUBLE_EQ(spec->corrupt, 0.02);
  EXPECT_DOUBLE_EQ(spec->reset, 0.02);
  EXPECT_DOUBLE_EQ(spec->delay_prob, 0.10);
  EXPECT_EQ(spec->delay_ms, 20u);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_TRUE(spec->any());
}

TEST(FaultSpecTest, DelayProbabilityDefaultsToOne) {
  const auto spec = FaultSpec::parse("delay_ms=5");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->delay_ms, 5u);
  EXPECT_DOUBLE_EQ(spec->delay_prob, 1.0);
  EXPECT_TRUE(spec->any());
}

TEST(FaultSpecTest, EmptySpecParsesToNoFaults) {
  const auto spec = FaultSpec::parse("");
  ASSERT_TRUE(spec.has_value());
  EXPECT_FALSE(spec->any());
}

TEST(FaultSpecTest, MalformedSpecsAreRejectedNotGuessed) {
  // A chaos run with a typo'd spec must fail loudly, not silently run
  // fault-free and "pass".
  const char* bad[] = {
      "drop",            // no value
      "drop=",           // empty value
      "drop=1.5",        // probability out of range
      "drop=-0.1",       // negative probability
      "drop=abc",        // not a number
      "delay_ms=20000",  // delay above the 10s wedge guard
      "delay_ms=20:1.5", // delay probability out of range
      "delay_ms=20:",    // dangling colon
      "seed=abc",        // not an integer
      "unknown=1",       // unknown key
      "drop=0.1,,seed=2" // empty token
  };
  for (const char* text : bad) {
    EXPECT_FALSE(FaultSpec::parse(text).has_value()) << "spec: " << text;
  }
}

// ------------------------------------------------------------ round-trip

/// parse(to_string(spec)) must reproduce every effective field — the law
/// that makes a logged spec replayable verbatim.
void expect_round_trips(const FaultSpec& spec) {
  const std::string text = spec.to_string();
  const auto back = FaultSpec::parse(text);
  ASSERT_TRUE(back.has_value()) << "to_string produced an unparseable spec: '"
                                << text << "'";
  EXPECT_DOUBLE_EQ(back->drop, spec.drop) << text;
  EXPECT_DOUBLE_EQ(back->corrupt, spec.corrupt) << text;
  EXPECT_DOUBLE_EQ(back->reset, spec.reset) << text;
  EXPECT_EQ(back->seed, spec.seed) << text;
  // Delay is effective only when it can fire; an ineffective delay may
  // canonicalize away entirely.
  if (spec.delay_prob > 0.0 && spec.delay_ms > 0) {
    EXPECT_EQ(back->delay_ms, spec.delay_ms) << text;
    EXPECT_DOUBLE_EQ(back->delay_prob, spec.delay_prob) << text;
  } else {
    EXPECT_FALSE(back->delay_prob > 0.0 && back->delay_ms > 0) << text;
  }
  // And the canonical form is a fixed point: one more trip is identity.
  EXPECT_EQ(back->to_string(), text);
}

TEST(FaultSpecTest, ToStringRoundTripsParsedSpecs) {
  const char* specs[] = {
      "drop=0.05,delay_ms=20:0.10,corrupt=0.02,reset=0.02,seed=7",
      "drop=0.1",
      "delay_ms=5",           // bare delay: probability 1
      "delay_ms=20:0.333333", // six decimals survive the trip
      "reset=1",              // certain fault
      "seed=18446744073709551615",  // max u64 seed
      "",                     // no-fault spec
  };
  for (const char* text : specs) {
    const auto spec = FaultSpec::parse(text);
    ASSERT_TRUE(spec.has_value()) << text;
    expect_round_trips(*spec);
  }
}

TEST(FaultSpecTest, ToStringEmitsOnlyEffectiveFields) {
  EXPECT_EQ(FaultSpec{}.to_string(), "") << "all-defaults prints empty";

  FaultSpec ineffective;
  ineffective.delay_ms = 50;  // delay_prob stays 0: can never fire
  ineffective.seed = 0;       // the default seed disappears too
  EXPECT_EQ(ineffective.to_string(), "");

  FaultSpec certain_delay;
  certain_delay.delay_prob = 1.0;
  certain_delay.delay_ms = 20;
  EXPECT_EQ(certain_delay.to_string(), "delay_ms=20")
      << "probability 1 is the bare-delay form, not delay_ms=20:1";

  FaultSpec mixed;
  mixed.drop = 0.5;
  mixed.reset = 0.0;  // zero-probability faults are omitted
  mixed.seed = 9;
  EXPECT_EQ(mixed.to_string(), "drop=0.5,seed=9");
  expect_round_trips(mixed);
}

TEST(FaultSpecTest, ToStringOfHandBuiltSpecsRoundTrips) {
  FaultSpec spec;
  spec.drop = 0.125;
  spec.corrupt = 0.0625;
  spec.reset = 0.25;
  spec.delay_prob = 0.5;
  spec.delay_ms = 7;
  spec.seed = 0xFEED;
  expect_round_trips(spec);
  EXPECT_EQ(spec.to_string(),
            "drop=0.125,corrupt=0.0625,reset=0.25,delay_ms=7:0.5,seed=65261");
}

// A probability finer than six decimals is still an armed fault: its logged
// form must parse back to the same double, never to a disarmed spec.
TEST(FaultSpecTest, TinyProbabilitiesRoundTripExactly) {
  const char* probs[] = {"0.0000001", "0.00000049", "0.0000005",
                         "0.000000123456789", "0.0000000000000000000001",
                         "0.9999999"};
  const char* fields[] = {"drop=", "corrupt=", "reset=", "delay_ms=3:"};
  for (const char* field : fields) {
    for (const char* p : probs) {
      const std::string text = std::string(field) + p;
      const auto spec = FaultSpec::parse(text);
      ASSERT_TRUE(spec.has_value()) << text;
      ASSERT_TRUE(spec->any()) << text;
      const std::string printed = spec->to_string();
      const auto back = FaultSpec::parse(printed);
      ASSERT_TRUE(back.has_value()) << text << " printed as " << printed;
      EXPECT_TRUE(back->any()) << text << " printed as " << printed;
      // Bitwise, not within a few ulps: the same double comes back.
      EXPECT_EQ(back->drop, spec->drop) << text << " -> " << printed;
      EXPECT_EQ(back->corrupt, spec->corrupt) << text << " -> " << printed;
      EXPECT_EQ(back->reset, spec->reset) << text << " -> " << printed;
      EXPECT_EQ(back->delay_prob, spec->delay_prob)
          << text << " -> " << printed;
      EXPECT_EQ(back->to_string(), printed);
    }
  }
  // Hand-built doubles that no decimal string may parse to exactly still
  // keep their fault armed, at the nearest value the grammar can express
  // (parse_prob's accumulation drifts by a few hundred ulps at 300 places).
  for (const double p : {1e-7, 3e-9, 1e-300}) {
    FaultSpec spec;
    spec.drop = p;
    const auto back = FaultSpec::parse(spec.to_string());
    ASSERT_TRUE(back.has_value()) << spec.to_string();
    EXPECT_TRUE(back->any()) << spec.to_string();
    EXPECT_NEAR(back->drop, p, p * 1e-12) << spec.to_string();
  }
}

// ----------------------------------------------------------- determinism

FaultSpec chaos_spec(std::uint64_t seed) {
  FaultSpec spec;
  spec.drop = 0.10;
  spec.corrupt = 0.05;
  spec.reset = 0.05;
  spec.delay_prob = 0.10;
  spec.delay_ms = 1;
  spec.seed = seed;
  return spec;
}

TEST(FaultInjectorTest, SameSpecAndSeedReplayTheExactSchedule) {
  FaultInjector a(chaos_spec(7));
  FaultInjector b(chaos_spec(7));
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const FaultDecision da = a.decide(i);
    const FaultDecision db = b.decide(i);
    EXPECT_EQ(da.drop, db.drop) << "event " << i;
    EXPECT_EQ(da.corrupt, db.corrupt) << "event " << i;
    EXPECT_EQ(da.reset, db.reset) << "event " << i;
    EXPECT_EQ(da.delay_ms, db.delay_ms) << "event " << i;
    EXPECT_EQ(da.corrupt_bit, db.corrupt_bit) << "event " << i;
  }
}

TEST(FaultInjectorTest, DifferentSeedsProduceDifferentSchedules) {
  FaultInjector a(chaos_spec(7));
  FaultInjector b(chaos_spec(8));
  int differing = 0;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const FaultDecision da = a.decide(i);
    const FaultDecision db = b.decide(i);
    if (da.drop != db.drop || da.corrupt != db.corrupt ||
        da.reset != db.reset || da.delay_ms != db.delay_ms) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 100) << "seed must actually steer the schedule";
}

TEST(FaultInjectorTest, NextWalksTheSameStreamAsDecide) {
  FaultInjector walker(chaos_spec(42));
  FaultInjector oracle(chaos_spec(42));
  for (std::uint64_t i = 0; i < 256; ++i) {
    const FaultDecision got = walker.next();
    const FaultDecision want = oracle.decide(i);
    EXPECT_EQ(got.drop, want.drop) << "event " << i;
    EXPECT_EQ(got.corrupt, want.corrupt) << "event " << i;
    EXPECT_EQ(got.reset, want.reset) << "event " << i;
  }
  EXPECT_EQ(walker.events(), 256u);
}

TEST(FaultInjectorTest, AtMostOneTerminalFaultPerDecision) {
  FaultSpec spec;  // extreme rates to force collisions
  spec.drop = 0.5;
  spec.corrupt = 0.5;
  spec.reset = 0.5;
  spec.seed = 3;
  FaultInjector injector(spec);
  for (std::uint64_t i = 0; i < 2048; ++i) {
    const FaultDecision d = injector.decide(i);
    EXPECT_LE(int{d.drop} + int{d.corrupt} + int{d.reset}, 1) << "event " << i;
  }
}

TEST(FaultInjectorTest, ObservedRatesTrackTheSpec) {
  FaultSpec spec;
  spec.drop = 0.20;
  spec.reset = 0.10;
  spec.seed = 11;
  FaultInjector injector(spec);
  const int n = 20'000;
  int drops = 0;
  int resets = 0;
  for (int i = 0; i < n; ++i) {
    const FaultDecision d = injector.decide(static_cast<std::uint64_t>(i));
    drops += d.drop ? 1 : 0;
    resets += d.reset ? 1 : 0;
  }
  // Loose 3-sigma-ish bands: this is a sanity check on the u01 mapping and
  // threshold logic, not a statistics paper.
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.20, 0.02);
  EXPECT_NEAR(static_cast<double>(resets) / n, 0.10, 0.02);
}

TEST(FaultInjectorTest, ZeroSpecNeverFires) {
  FaultInjector injector(FaultSpec{});
  for (std::uint64_t i = 0; i < 1024; ++i) {
    const FaultDecision d = injector.decide(i);
    EXPECT_FALSE(d.drop || d.corrupt || d.reset);
    EXPECT_EQ(d.delay_ms, 0u);
  }
}

// ------------------------------------------------------------ install/seam

TEST(FaultInjectorTest, ActiveIsNullWhenNothingInstalled) {
  if (std::getenv("NNR_FAULT_SPEC") != nullptr) {
    GTEST_SKIP() << "NNR_FAULT_SPEC set in this environment";
  }
  EXPECT_EQ(FaultInjector::active(), nullptr);
}

TEST(FaultInjectorTest, ScopedInstallArmsAndRestores) {
  FaultInjector* before = FaultInjector::active();
  FaultInjector injector(chaos_spec(1));
  {
    FaultInjector::ScopedInstall guard(&injector);
    EXPECT_EQ(FaultInjector::active(), &injector);
  }
  EXPECT_EQ(FaultInjector::active(), before);
}

// ------------------------------------------------- faults on the real wire

/// A connected loopback (client, server_side) pair. Mirrors socket_test.cc.
struct SocketPair {
  Socket client;
  Socket server;
};

SocketPair make_pair_on_loopback(int io_timeout_ms) {
  Listener listener;
  EXPECT_TRUE(listener.listen_on("127.0.0.1", 0));
  SocketPair pair;
  pair.client = connect_tcp("127.0.0.1", listener.port(), 1000, io_timeout_ms);
  EXPECT_TRUE(pair.client.valid());
  for (int i = 0; i < 100 && !pair.server.valid(); ++i) {
    pair.server = listener.accept_conn();
    if (!pair.server.valid()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(pair.server.valid());
  // accept_conn() sockets have no timeout; these tests recv on the server
  // side and must never hang on a dropped/short frame.
  pair.server.set_io_timeout_ms(io_timeout_ms);
  return pair;
}

TEST(FaultInjectorSocketTest, DroppedSendVanishesAndThePeerTimesOut) {
  SocketPair pair = make_pair_on_loopback(/*io_timeout_ms=*/150);
  FaultSpec spec;
  spec.drop = 1.0;
  FaultInjector injector(spec);
  FaultInjector::ScopedInstall guard(&injector);
  // The send "succeeds" — packet loss is invisible to the sender.
  EXPECT_EQ(pair.client.send_all("ping", 4), IoStatus::kOk);
  EXPECT_GE(injector.drops(), 1u);
  // ...but nothing arrives.
  FaultInjector::ScopedInstall off(nullptr);  // keep the recv side clean
  char buf[4];
  std::size_t got = 99;
  EXPECT_EQ(pair.server.recv_exact(buf, sizeof(buf), &got), IoStatus::kTimeout);
  EXPECT_EQ(got, 0u);
}

TEST(FaultInjectorSocketTest, CorruptedFrameFailsTheChecksumNeverParses) {
  SocketPair pair = make_pair_on_loopback(/*io_timeout_ms=*/500);
  FaultSpec spec;
  spec.corrupt = 1.0;
  spec.seed = 5;
  FaultInjector injector(spec);
  const std::string body(256, '\x5A');
  {
    FaultInjector::ScopedInstall guard(&injector);
    // send_frame reports success — the sender cannot see the flipped bit.
    ASSERT_TRUE(send_frame(pair.client, /*opcode=*/7, body));
  }
  EXPECT_GE(injector.corrupts(), 1u);
  // The receiver must never surface a clean frame from a corrupted stream:
  // a checksum/magic/version failure throws CheckpointError, and a bit in
  // the length prefix desyncs the read (kError/kTimeout) — anything but a
  // valid frame.
  bool clean_frame = false;
  try {
    clean_frame = recv_frame_ex(pair.server).status == RecvStatus::kFrame;
  } catch (const std::exception&) {
    // The expected path: integrity check caught the flip.
  }
  EXPECT_FALSE(clean_frame) << "a bit-flipped frame must not parse";
}

TEST(FaultInjectorSocketTest, ResetSurfacesAsConnectionErrorOnThePeer) {
  SocketPair pair = make_pair_on_loopback(/*io_timeout_ms=*/500);
  FaultSpec spec;
  spec.reset = 1.0;
  FaultInjector injector(spec);
  {
    FaultInjector::ScopedInstall guard(&injector);
    const IoStatus status = pair.client.send_all("boom", 4);
    EXPECT_NE(status, IoStatus::kOk) << "an injected reset kills the call";
  }
  EXPECT_GE(injector.resets(), 1u);
  EXPECT_FALSE(pair.client.valid()) << "reset closes the local socket";
  // The peer sees the connection die (RST -> kClosed or kError, never a
  // clean frame or an indefinite hang).
  char buf[4];
  const IoStatus peer = pair.server.recv_exact(buf, sizeof(buf));
  EXPECT_NE(peer, IoStatus::kOk);
}

TEST(FaultInjectorSocketTest, DelayStallsTheCallButDeliversTheBytes) {
  SocketPair pair = make_pair_on_loopback(/*io_timeout_ms=*/2000);
  FaultSpec spec;
  spec.delay_prob = 1.0;
  spec.delay_ms = 60;
  FaultInjector injector(spec);
  const auto start = std::chrono::steady_clock::now();
  {
    FaultInjector::ScopedInstall guard(&injector);
    ASSERT_EQ(pair.client.send_all("slow", 4), IoStatus::kOk);
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_GE(elapsed, 50) << "the injected delay must actually stall";
  EXPECT_GE(injector.delays(), 1u);
  char buf[4];
  ASSERT_EQ(pair.server.recv_exact(buf, sizeof(buf)), IoStatus::kOk);
  EXPECT_EQ(std::memcmp(buf, "slow", 4), 0) << "delay is not loss";
}

}  // namespace
}  // namespace nnr::net
