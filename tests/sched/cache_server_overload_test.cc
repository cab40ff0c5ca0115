// Daemon self-protection: the connection cap (excess accepts answered with
// one kGoAway carrying kBusy + a retry hint, then closed), the idle
// deadline (a slow-loris client is evicted while a chatty one is not), the
// per-connection token bucket (over-rate requests answered kThrottled with
// the connection surviving — and a throttle-honoring client that never
// notices), and graceful shutdown (leases released, fleet queue persisted,
// a restarted daemon resumes the wave).
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "net/cache_protocol.h"
#include "net/frame.h"
#include "sched/cache_server.h"
#include "sched/fleet_queue.h"
#include "sched/remote_cache_backend.h"

namespace nnr::sched {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

RemoteCacheOptions fast_options() {
  RemoteCacheOptions options;
  options.lease_ttl_ms = 2000;
  options.io_timeout_ms = 2000;
  options.connect_timeout_ms = 500;
  options.reconnect_backoff_ms = 50;
  options.claim_poll_ms = 10;
  options.jitter_seed = 7;
  return options;
}

/// In-process daemon with an arbitrary overload config.
class OverloadServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("nnr_overload_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    stop();
    fs::remove_all(dir_);
  }

  void start(CacheServerConfig config) {
    config.dir = dir_.string();
    server_ = std::make_unique<CacheServer>(std::move(config));
    ASSERT_TRUE(server_->start());
    thread_ = std::thread([this] { server_->run(); });
  }

  void stop() {
    if (server_ != nullptr) {
      server_->stop();
      thread_.join();
      server_.reset();
    }
  }

  std::unique_ptr<RemoteCacheBackend> client(
      RemoteCacheOptions options = fast_options()) {
    return std::make_unique<RemoteCacheBackend>(
        "tcp://127.0.0.1:" + std::to_string(server_->port()), options);
  }

  net::Socket raw_conn(int io_timeout_ms = 2000) {
    net::Socket sock =
        net::connect_tcp("127.0.0.1", server_->port(), 1000, io_timeout_ms);
    EXPECT_TRUE(sock.valid());
    return sock;
  }

  fs::path dir_;
  std::unique_ptr<CacheServer> server_;
  std::thread thread_;
};

std::vector<FleetWorkItem> grid(std::uint64_t count) {
  std::vector<FleetWorkItem> out;
  for (std::uint64_t n = 1; n <= count; ++n) {
    FleetWorkItem item;
    item.key = CellKey{0xF00D + n, n};
    item.study = "fig2";
    item.cell = static_cast<std::uint32_t>(n);
    item.replicate = 0;
    out.push_back(std::move(item));
  }
  return out;
}

TEST_F(OverloadServerTest, ConnectionCapAnswersGoAwayBusyThenCloses) {
  CacheServerConfig config;
  config.max_conns = 2;
  start(std::move(config));

  // Fill the cap. Raw conns register with the daemon at accept; a ping
  // round-trip proves each is fully in the epoll set.
  net::Socket first = raw_conn();
  net::Socket second = raw_conn();
  for (net::Socket* sock : {&first, &second}) {
    ASSERT_TRUE(net::send_frame(
        *sock, static_cast<std::uint8_t>(net::Op::kPing), ""));
    ASSERT_EQ(net::recv_frame_ex(*sock).status, net::RecvStatus::kFrame);
  }

  // The third is over capacity: exactly one kGoAway frame, then EOF.
  net::Socket excess = raw_conn();
  const auto frame = net::recv_frame_ex(excess);
  ASSERT_EQ(frame.status, net::RecvStatus::kFrame)
      << "the refusal must be explicit, not a silent close the client "
         "misreads";
  EXPECT_EQ(frame.frame.opcode, static_cast<std::uint8_t>(net::Op::kGoAway));
  net::BodyReader r(frame.frame.body);
  EXPECT_EQ(static_cast<net::Status>(r.get<std::uint8_t>()),
            net::Status::kBusy);
  EXPECT_GT(r.get<std::uint32_t>(), 0u) << "retry hint must be usable";
  char byte = 0;
  EXPECT_EQ(excess.recv_exact(&byte, 1), net::IoStatus::kClosed);
  EXPECT_GE(server_->overload_counters().rejected_busy, 1);

  // Capacity is by live connections, not a lifetime count: close one and
  // the next accept succeeds.
  first.close();
  const auto deadline = Clock::now() + std::chrono::seconds(3);
  bool admitted = false;
  while (Clock::now() < deadline && !admitted) {
    net::Socket retry = raw_conn();
    if (net::send_frame(retry, static_cast<std::uint8_t>(net::Op::kPing),
                        "")) {
      const auto reply = net::recv_frame_ex(retry);
      // A kGoAway here means the daemon hasn't noticed the close yet —
      // keep retrying; only an echoed ping proves admission.
      admitted = reply.status == net::RecvStatus::kFrame &&
                 reply.frame.opcode ==
                     static_cast<std::uint8_t>(net::Op::kPing);
    }
    if (!admitted) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(admitted) << "freed capacity must be reusable";
}

TEST_F(OverloadServerTest, SlowLorisIsEvictedWhileChattyClientsSurvive) {
  CacheServerConfig config;
  config.idle_timeout_ms = 200;
  start(std::move(config));

  // The loris: connects and never sends a byte. Nonblocking so the probe
  // below polls instead of stalling on its receive timeout.
  net::Socket loris = raw_conn(/*io_timeout_ms=*/3000);
  ASSERT_TRUE(loris.set_nonblocking());
  // The healthy client keeps talking well inside the idle window while
  // the loris ages out.
  auto healthy = client();
  const auto start_time = Clock::now();
  bool evicted = false;
  while (Clock::now() - start_time < std::chrono::seconds(3) && !evicted) {
    EXPECT_TRUE(healthy->ping()) << "an active client must never be evicted";
    char byte = 0;
    // A closed loris shows up as EOF on a nonblocking-ish probe; use the
    // socket's own receive with a short timeout slice via ping cadence.
    const auto n = loris.recv_avail(&byte, 1);
    if (n == 0 || n == -2) evicted = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(evicted) << "a silent connection must be evicted by the "
                          "idle deadline";
  EXPECT_GE(server_->overload_counters().idle_evicted, 1);
  EXPECT_TRUE(healthy->ping());
}

TEST_F(OverloadServerTest, OverRateClientIsThrottledWithARetryHint) {
  CacheServerConfig config;
  config.max_rps = 2.0;
  config.burst = 1.0;
  start(std::move(config));

  net::Socket greedy = raw_conn();
  // First request spends the single token...
  ASSERT_TRUE(
      net::send_frame(greedy, static_cast<std::uint8_t>(net::Op::kPing), ""));
  auto reply = net::recv_frame_ex(greedy);
  ASSERT_EQ(reply.status, net::RecvStatus::kFrame);
  ASSERT_FALSE(reply.frame.body.empty());
  EXPECT_EQ(static_cast<net::Status>(reply.frame.body[0]), net::Status::kOk);

  // ...the immediate second is refused, connection intact, hint attached.
  ASSERT_TRUE(
      net::send_frame(greedy, static_cast<std::uint8_t>(net::Op::kPing), ""));
  reply = net::recv_frame_ex(greedy);
  ASSERT_EQ(reply.status, net::RecvStatus::kFrame)
      << "throttling must answer, not drop";
  EXPECT_EQ(reply.frame.opcode, static_cast<std::uint8_t>(net::Op::kPing))
      << "the refusal echoes the request opcode";
  net::BodyReader r(reply.frame.body);
  EXPECT_EQ(static_cast<net::Status>(r.get<std::uint8_t>()),
            net::Status::kThrottled);
  const std::uint32_t hint_ms = r.get<std::uint32_t>();
  EXPECT_GT(hint_ms, 0u);
  EXPECT_LE(hint_ms, 60'000u);
  EXPECT_GE(server_->overload_counters().throttled, 1);

  // A different connection has its own bucket: the greedy client cannot
  // starve a neighbor.
  net::Socket neighbor = raw_conn();
  ASSERT_TRUE(net::send_frame(neighbor,
                              static_cast<std::uint8_t>(net::Op::kPing), ""));
  const auto ok = net::recv_frame_ex(neighbor);
  ASSERT_EQ(ok.status, net::RecvStatus::kFrame);
  ASSERT_FALSE(ok.frame.body.empty());
  EXPECT_EQ(static_cast<net::Status>(ok.frame.body[0]), net::Status::kOk);

  // And the greedy connection survives: after the hint, a token exists.
  std::this_thread::sleep_for(std::chrono::milliseconds(hint_ms + 100));
  ASSERT_TRUE(
      net::send_frame(greedy, static_cast<std::uint8_t>(net::Op::kPing), ""));
  reply = net::recv_frame_ex(greedy);
  ASSERT_EQ(reply.status, net::RecvStatus::kFrame)
      << "the throttled connection must survive";
  ASSERT_FALSE(reply.frame.body.empty());
  EXPECT_EQ(static_cast<net::Status>(reply.frame.body[0]), net::Status::kOk);
}

TEST_F(OverloadServerTest, ThrottleHonoringBackendSucceedsTransparently) {
  CacheServerConfig config;
  config.max_rps = 10.0;
  config.burst = 1.0;
  start(std::move(config));

  RemoteCacheOptions options = fast_options();
  options.throttle_retries = 5;
  options.max_retry_after_ms = 500;
  auto backend = client(options);
  // Back-to-back operations overrun burst=1 constantly; the backend's
  // internal sleep-the-hint-and-resend loop must absorb every refusal.
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(backend->ping()) << "op " << i;
  }
  EXPECT_GE(server_->overload_counters().throttled, 1)
      << "the test must actually have been throttled to prove anything";
}

TEST_F(OverloadServerTest, GracefulStopPersistsQueueAndRestartResumesWave) {
  CacheServerConfig config;
  config.drain_timeout_ms = 2000;
  start(std::move(config));
  const std::uint16_t port = server_->port();

  auto backend = client();
  ASSERT_TRUE(backend->fleet_submit(grid(3)).has_value());
  auto fetch = backend->fleet_fetch();  // one cell in flight at stop time
  ASSERT_TRUE(fetch.has_value());
  ASSERT_TRUE(fetch->granted);

  // stop() is the SIGTERM path: drain, release leases (the in-flight cell
  // requeues), persist the snapshot.
  stop();

  CacheServerConfig again;
  again.port = port;
  start(std::move(again));
  auto peer = client();
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  std::optional<FleetQueue::Stats> stat;
  while (Clock::now() < deadline) {
    stat = peer->fleet_queue_stat();
    if (stat.has_value()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->total, 3u);
  EXPECT_EQ(stat->pending, 3u)
      << "the leased cell must revert to pending across a graceful stop";
  EXPECT_EQ(stat->leased, 0u);
  const auto refetch = peer->fleet_fetch();
  ASSERT_TRUE(refetch.has_value());
  EXPECT_TRUE(refetch->granted) << "the restarted daemon must resume the wave";
}

}  // namespace
}  // namespace nnr::sched
