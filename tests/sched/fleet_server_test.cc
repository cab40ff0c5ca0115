// Fleet work queue at the wire level: SUBMIT/FETCH/REPORT/QUEUE_STAT
// against an in-process CacheServer — the drain signal on an empty queue,
// kGone for reports nobody leased, the malformation matrix for the three
// new opcodes (truncated bodies cost the connection, never the daemon;
// out-of-range enum values answer kError), lease-death requeue paths, the
// PUT-settles-the-item contract, and queue durability across a daemon
// restart.
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/backoff.h"
#include "net/cache_protocol.h"
#include "net/frame.h"
#include "sched/cache_server.h"
#include "sched/fleet_queue.h"
#include "sched/remote_cache_backend.h"

namespace nnr::sched {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

core::RunResult sample_result() {
  core::RunResult r;
  r.test_predictions = {1, 2, 3};
  r.test_confidences = {0.5F, 0.25F, 1.0F};
  r.final_weights = {0.5F, -1.0F};
  r.test_accuracy = 0.5;
  r.final_train_loss = 2.0;
  return r;
}

RemoteCacheOptions fast_options() {
  RemoteCacheOptions options;
  options.lease_ttl_ms = 2000;
  options.io_timeout_ms = 2000;
  options.connect_timeout_ms = 500;
  options.reconnect_backoff_ms = 50;
  options.claim_poll_ms = 10;
  return options;
}

/// An in-process daemon on an ephemeral loopback port.
class ServerHandle {
 public:
  bool start(const std::string& dir, std::uint16_t port = 0) {
    CacheServerConfig config;
    config.dir = dir;
    config.port = port;
    return start(std::move(config));
  }

  /// Full-config start for the overload/chaos tests.
  bool start(CacheServerConfig config) {
    server_ = std::make_unique<CacheServer>(std::move(config));
    if (!server_->start()) return false;
    thread_ = std::thread([this] { server_->run(); });
    return true;
  }

  [[nodiscard]] CacheServer& server() { return *server_; }

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }

  void stop() {
    if (server_ != nullptr) {
      server_->stop();
      thread_.join();
      server_.reset();
    }
  }

  ~ServerHandle() { stop(); }

 private:
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

class FleetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("nnr_fleet_" + std::string(::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name()));
    fs::remove_all(dir_);
    ASSERT_TRUE(server_.start(dir_.string()));
  }
  void TearDown() override {
    server_.stop();
    fs::remove_all(dir_);
  }

  std::unique_ptr<RemoteCacheBackend> client(
      RemoteCacheOptions options = fast_options()) {
    return std::make_unique<RemoteCacheBackend>(
        "tcp://127.0.0.1:" + std::to_string(server_.port()), options);
  }

  net::Socket raw_conn() {
    net::Socket sock = net::connect_tcp("127.0.0.1", server_.port(), 1000,
                                        /*io_timeout_ms=*/2000);
    EXPECT_TRUE(sock.valid());
    return sock;
  }

  fs::path dir_;
  ServerHandle server_;
};

TEST_F(FleetServerTest, FetchOnEmptyQueueReportsNothingOutstanding) {
  auto backend = client();
  const auto fetch = backend->fleet_fetch();
  ASSERT_TRUE(fetch.has_value());
  EXPECT_FALSE(fetch->granted);
  EXPECT_EQ(fetch->outstanding, 0u);
  EXPECT_EQ(fetch->total, 0u)
      << "total == 0 tells a worker to wait for a submit, not exit";
}

TEST_F(FleetServerTest, SubmitFetchReportRoundTrip) {
  auto backend = client();
  const auto ack = backend->fleet_submit(grid(2));
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->enqueued, 2u);

  auto fetch = backend->fleet_fetch();
  ASSERT_TRUE(fetch.has_value());
  ASSERT_TRUE(fetch->granted);
  EXPECT_EQ(fetch->item.study, "fig2");
  EXPECT_EQ(fetch->item.key, grid(2)[0].key) << "FIFO: submit order";
  ASSERT_TRUE(fetch->claim.has_value());
  EXPECT_TRUE(fetch->claim->held());

  auto stat = backend->fleet_queue_stat();
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->leased, 1u);
  EXPECT_EQ(stat->pending, 1u);

  const auto report = backend->fleet_report(fetch->item.key, fetch->lease_id,
                                            net::ReportOutcome::kTrained);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->done, 1u);
  EXPECT_EQ(report->total, 2u);

  stat = backend->fleet_queue_stat();
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->trained, 1u);
  EXPECT_EQ(stat->leased, 0u);
}

TEST_F(FleetServerTest, SubmitShortCircuitsKeysAlreadyInTheCache) {
  auto backend = client();
  auto items = grid(3);
  ASSERT_TRUE(backend->store(items[1].key, sample_result()));
  const auto ack = backend->fleet_submit(items);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->enqueued, 2u);
  EXPECT_EQ(ack->already_done, 1u);
  const auto stat = backend->fleet_queue_stat();
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->served, 1u);
  EXPECT_EQ(stat->done, 1u);
}

TEST_F(FleetServerTest, ReportForUnclaimedCellAnswersGone) {
  net::Socket sock = raw_conn();
  net::BodyWriter w;
  w.put(std::uint64_t{0xDEAD});  // key.hi — nothing ever leased this
  w.put(std::uint64_t{0xBEEF});  // key.lo
  w.put(std::uint64_t{42});      // lease_id
  w.put(static_cast<std::uint8_t>(net::ReportOutcome::kTrained));
  ASSERT_TRUE(net::send_frame(
      sock, static_cast<std::uint8_t>(net::Op::kReport), w.take()));
  const auto reply = net::recv_frame_ex(sock);
  ASSERT_EQ(reply.status, net::RecvStatus::kFrame);
  ASSERT_FALSE(reply.frame.body.empty());
  EXPECT_EQ(static_cast<net::Status>(reply.frame.body[0]), net::Status::kGone);
}

TEST_F(FleetServerTest, ReportWithInvalidOutcomeByteAnswersError) {
  net::Socket sock = raw_conn();
  net::BodyWriter w;
  w.put(std::uint64_t{1});
  w.put(std::uint64_t{2});
  w.put(std::uint64_t{3});
  w.put(std::uint8_t{7});  // not a ReportOutcome
  ASSERT_TRUE(net::send_frame(
      sock, static_cast<std::uint8_t>(net::Op::kReport), w.take()));
  const auto reply = net::recv_frame_ex(sock);
  ASSERT_EQ(reply.status, net::RecvStatus::kFrame);
  ASSERT_FALSE(reply.frame.body.empty());
  EXPECT_EQ(static_cast<net::Status>(reply.frame.body[0]), net::Status::kError);
}

TEST_F(FleetServerTest, MalformedFleetBodiesCostTheConnectionNotTheDaemon) {
  struct Case {
    net::Op op;
    std::string body;
    const char* what;
  };
  net::BodyWriter lying_submit;
  lying_submit.put(std::uint32_t{5});  // promises 5 items, carries none
  net::BodyWriter truncated_report;
  truncated_report.put(std::uint64_t{1});  // key.hi only
  const Case cases[] = {
      {net::Op::kSubmit, lying_submit.take(), "SUBMIT count > items"},
      {net::Op::kSubmit, std::string("\x01", 1), "SUBMIT truncated count"},
      {net::Op::kFetch, "", "FETCH missing ttl"},
      {net::Op::kReport, truncated_report.take(), "REPORT truncated body"},
  };
  for (const Case& c : cases) {
    net::Socket sock = raw_conn();
    ASSERT_TRUE(
        net::send_frame(sock, static_cast<std::uint8_t>(c.op), c.body))
        << c.what;
    EXPECT_NE(net::recv_frame_ex(sock).status, net::RecvStatus::kFrame)
        << c.what << ": a malformed body is a protocol violation — the "
        << "daemon must drop the connection, not answer";
    // The daemon itself must shrug it off: a fresh connection works.
    auto probe = client();
    EXPECT_TRUE(probe->ping()) << c.what << " must not kill the daemon";
  }
}

TEST_F(FleetServerTest, MalformedBodySweepDropsOffenderNotHealthyClients) {
  // Every opcode that requires a body, fed a 1-byte body: the daemon must
  // drop exactly the offending connection — and a healthy client working
  // concurrently must never notice.
  const net::Op body_ops[] = {
      net::Op::kGet,     net::Op::kPut,    net::Op::kTryClaim,
      net::Op::kRelease, net::Op::kHeartbeat, net::Op::kSubmit,
      net::Op::kFetch,   net::Op::kReport,
  };
  auto healthy = client();
  for (const net::Op op : body_ops) {
    net::Socket sock = raw_conn();
    ASSERT_TRUE(net::send_frame(sock, static_cast<std::uint8_t>(op),
                                std::string("\x01", 1)))
        << "op " << static_cast<int>(op);
    EXPECT_NE(net::recv_frame_ex(sock).status, net::RecvStatus::kFrame)
        << "op " << static_cast<int>(op)
        << ": a truncated body must cost the connection, never get an answer";
    EXPECT_TRUE(healthy->ping())
        << "op " << static_cast<int>(op)
        << ": the healthy client must survive the offender";
  }
}

TEST_F(FleetServerTest, GarbageLengthPrefixesDropTheConnection) {
  // Below the frame layer: raw length prefixes the daemon must refuse to
  // allocate for. Oversized says "I will send 64MB+1" (a memory bomb);
  // tiny says "3 bytes" (can't even hold the magic). Either way: drop.
  struct Case {
    std::uint32_t len;
    const char* what;
  };
  const Case cases[] = {
      {net::kMaxFrameBytes + 1, "oversized length (allocation bomb)"},
      {3, "length below the minimum payload"},
      {0, "zero length"},
      {0xFFFF'FFFFu, "UINT32_MAX length"},
  };
  auto healthy = client();
  for (const Case& c : cases) {
    net::Socket sock = raw_conn();
    ASSERT_EQ(sock.send_all(&c.len, sizeof(c.len)), net::IoStatus::kOk)
        << c.what;
    // The daemon must close without ever answering…
    char byte = 0;
    EXPECT_EQ(sock.recv_exact(&byte, 1), net::IoStatus::kClosed) << c.what;
    // …and without reserving 4GB or dying.
    EXPECT_TRUE(healthy->ping()) << c.what << " must not kill the daemon";
  }
}

TEST_F(FleetServerTest, DroppedWorkerConnectionRequeuesItsCell) {
  auto backend = client();
  ASSERT_TRUE(backend->fleet_submit(grid(1)).has_value());
  auto fetch = backend->fleet_fetch();
  ASSERT_TRUE(fetch.has_value());
  ASSERT_TRUE(fetch->granted);
  // Defuse the claim's destructor-release (the connection is about to die
  // anyway, mirroring a SIGKILLed worker).
  backend->drop_connection_for_test();

  auto peer = client();
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  std::optional<FleetQueue::Stats> stat;
  while (Clock::now() < deadline) {
    stat = peer->fleet_queue_stat();
    if (stat.has_value() && stat->pending == 1 && stat->leased == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->pending, 1u)
      << "a dead worker's cell must return to the queue";
  const auto refetch = peer->fleet_fetch();
  ASSERT_TRUE(refetch.has_value());
  EXPECT_TRUE(refetch->granted);
  EXPECT_EQ(refetch->item.key, grid(1)[0].key);
}

TEST_F(FleetServerTest, LeaseExpiryWithoutHeartbeatRequeuesTheCell) {
  RemoteCacheOptions no_heartbeat = fast_options();
  no_heartbeat.heartbeat = false;
  no_heartbeat.lease_ttl_ms = 300;
  auto worker = client(no_heartbeat);
  ASSERT_TRUE(worker->fleet_submit(grid(1)).has_value());
  auto fetch = worker->fleet_fetch();
  ASSERT_TRUE(fetch.has_value());
  ASSERT_TRUE(fetch->granted);

  auto peer = client();
  const auto start = Clock::now();
  std::optional<RemoteCacheBackend::FleetFetchResult> refetch;
  while (Clock::now() - start < std::chrono::seconds(5)) {
    refetch = peer->fleet_fetch();
    if (refetch.has_value() && refetch->granted) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(refetch.has_value());
  ASSERT_TRUE(refetch->granted)
      << "an expired lease must hand the cell to the next worker";
  EXPECT_EQ(refetch->item.key, grid(1)[0].key);
}

TEST_F(FleetServerTest, PutSettlesTheItemEvenWithoutAReport) {
  auto backend = client();
  ASSERT_TRUE(backend->fleet_submit(grid(1)).has_value());
  auto fetch = backend->fleet_fetch();
  ASSERT_TRUE(fetch.has_value());
  ASSERT_TRUE(fetch->granted);
  // The worker PUTs its result... and then (imagine) is SIGKILLed before
  // REPORT. The store is the proof of work.
  ASSERT_TRUE(backend->store(fetch->item.key, sample_result()));
  auto stat = backend->fleet_queue_stat();
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->trained, 1u) << "PUT must settle the queued item";
  EXPECT_EQ(stat->done, 1u);
  // A late report is acknowledged without double counting.
  (void)backend->fleet_report(fetch->item.key, fetch->lease_id,
                              net::ReportOutcome::kTrained);
  stat = backend->fleet_queue_stat();
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->trained, 1u);
  // And the drain signal now fires for every worker.
  const auto drained = backend->fleet_fetch();
  ASSERT_TRUE(drained.has_value());
  EXPECT_FALSE(drained->granted);
  EXPECT_EQ(drained->outstanding, 0u);
  EXPECT_EQ(drained->total, 1u);
}

TEST_F(FleetServerTest, DaemonRestartPreservesThePendingQueue) {
  const std::uint16_t port = server_.port();
  auto backend = client();
  ASSERT_TRUE(backend->fleet_submit(grid(3)).has_value());
  auto fetch = backend->fleet_fetch();  // one leased at crash time
  ASSERT_TRUE(fetch.has_value());
  ASSERT_TRUE(fetch->granted);

  server_.stop();
  ServerHandle restarted;
  ASSERT_TRUE(restarted.start(dir_.string(), port));

  auto peer = std::make_unique<RemoteCacheBackend>(
      "tcp://127.0.0.1:" + std::to_string(port), fast_options());
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  std::optional<FleetQueue::Stats> stat;
  while (Clock::now() < deadline) {
    stat = peer->fleet_queue_stat();
    if (stat.has_value()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(stat.has_value()) << "restarted daemon must serve the queue";
  EXPECT_EQ(stat->total, 3u) << "the queue snapshot must survive a restart";
  EXPECT_EQ(stat->pending, 3u)
      << "the crashed daemon's lease reverts to pending";
  EXPECT_EQ(stat->leased, 0u);
  // And the work is actually fetchable again.
  const auto refetch = peer->fleet_fetch();
  ASSERT_TRUE(refetch.has_value());
  EXPECT_TRUE(refetch->granted);
}

TEST_F(FleetServerTest, SubmitDuringDrainIsRefusedWithBusyNotEnqueued) {
  // A SUBMIT that races the graceful shutdown must be REFUSED (kBusy +
  // retry hint), never half-enqueued into the queue snapshot being saved:
  // the coordinator retries against the restarted daemon, which then owns
  // the items end to end. Drive a dedicated server's run loop on this
  // thread so the submit bytes are already pending when the drain read
  // pass runs.
  server_.stop();  // the fixture's own daemon is not the one under test
  CacheServerConfig config;
  config.dir = dir_.string();
  config.port = 0;
  config.busy_retry_ms = 1234;
  CacheServer server(std::move(config));
  ASSERT_TRUE(server.start());

  net::Socket sock = net::connect_tcp("127.0.0.1", server.port(), 1000, 2000);
  ASSERT_TRUE(sock.valid());
  net::BodyWriter w;
  w.put(std::uint32_t{1});
  w.put(std::uint64_t{0xD1});  // key.hi
  w.put(std::uint64_t{0xD2});  // key.lo
  const std::string study = "fig2";
  w.put(static_cast<std::uint32_t>(study.size()));
  w.put_bytes(study);
  w.put(std::uint32_t{0});  // cell
  w.put(std::uint32_t{0});  // replicate
  ASSERT_TRUE(net::send_frame(
      sock, static_cast<std::uint8_t>(net::Op::kSubmit), w.take()));
  // Let the bytes reach the daemon's kernel buffer, then request the stop
  // BEFORE running the loop: run() meets the accept and the stop wakeup in
  // its first epoll batch, exits, and finds the pending SUBMIT only in
  // drain_and_shutdown's final read pass — with draining_ set.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();
  server.run();

  auto reply = net::recv_frame_ex(sock);
  ASSERT_EQ(reply.status, net::RecvStatus::kFrame)
      << "the drain pass must answer, not drop";
  EXPECT_EQ(static_cast<net::Op>(reply.frame.opcode), net::Op::kSubmit);
  net::BodyReader r(reply.frame.body);
  EXPECT_EQ(static_cast<net::Status>(r.get<std::uint8_t>()),
            net::Status::kBusy);
  EXPECT_EQ(r.get<std::uint32_t>(), 1234u) << "retry hint = busy_retry_ms";

  // Nothing was enqueued: the queue snapshot a restarted daemon loads from
  // the same directory is empty.
  ASSERT_TRUE(server_.start(dir_.string()));
  auto backend = client();
  const auto stats = backend->fleet_queue_stat();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->total, 0u);
  EXPECT_EQ(stats->pending, 0u);
}

TEST_F(FleetServerTest, ReconnectBackoffCostsOneAttemptPerWindow) {
  // Regression: a failed reconnect used to stamp the backoff clock BEFORE
  // the connect attempt, so when the attempt itself outlasted the window
  // (connect_timeout > backoff) every operation retried the connect. A
  // down daemon must cost one attempt per window, not one per operation.
  const std::uint16_t dead_port = server_.port();
  server_.stop();
  RemoteCacheOptions options = fast_options();
  options.reconnect_backoff_ms = 60'000;  // one window spans the whole test
  auto backend = std::make_unique<RemoteCacheBackend>(
      "tcp://127.0.0.1:" + std::to_string(dead_port), options);
  for (int i = 0; i < 5; ++i) {
    (void)backend->fleet_queue_stat();
    (void)backend->load(CellKey{1, 1});
  }
  EXPECT_EQ(backend->connect_attempts_for_test(), 1)
      << "10 operations inside one backoff window must share one connect "
         "attempt";
}

TEST_F(FleetServerTest, ReconnectWindowsGrowExponentiallyWithBoundedAttempts) {
  // The down-daemon probe schedule: windows double (base, 2x, 4x, capped)
  // and each window costs exactly one attempt no matter how many
  // operations land inside it. Over ~1.2s with base=100 cap=800 the
  // attempt count is bounded by the schedule, not by the operation rate.
  const std::uint16_t dead_port = server_.port();
  server_.stop();
  RemoteCacheOptions options = fast_options();
  options.reconnect_backoff_ms = 100;
  options.reconnect_backoff_max_ms = 800;
  options.jitter_seed = 7;  // pinned: the schedule is reproducible
  auto backend = std::make_unique<RemoteCacheBackend>(
      "tcp://127.0.0.1:" + std::to_string(dead_port), options);
  const auto deadline = Clock::now() + std::chrono::milliseconds(1200);
  int operations = 0;
  while (Clock::now() < deadline) {
    (void)backend->fleet_queue_stat();
    ++operations;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Worst case with jitter 0.5x: windows 50, 100, 200, 400, 400... — at
  // most ~7 attempts fit in 1.2s; far fewer than the ~100 operations.
  EXPECT_GE(operations, 20);
  EXPECT_GE(backend->connect_attempts_for_test(), 2)
      << "growth must still probe more than once over 1.2s";
  EXPECT_LE(backend->connect_attempts_for_test(), 8)
      << "every operation must NOT retry the connect";
  // A pinned seed replays the exact same schedule.
  auto replay = std::make_unique<RemoteCacheBackend>(
      "tcp://127.0.0.1:" + std::to_string(dead_port), options);
  (void)replay->fleet_queue_stat();
  EXPECT_EQ(replay->connect_attempts_for_test(), 1);
}

TEST_F(FleetServerTest, RetryLoopMakesAConnectAttemptEveryTry) {
  // retry_with_window() never wakes inside the client's armed reconnect
  // window, so N tries against a refused port are N connect attempts. A
  // fixed schedule shorter than the window (the old startup ping: 5 pings
  // 200ms apart under a 500ms window) lands retries inside it, where they
  // fail fast without touching the socket.
  const std::uint16_t dead_port = server_.port();
  server_.stop();
  RemoteCacheOptions options = fast_options();
  options.reconnect_backoff_ms = 100;
  options.reconnect_backoff_max_ms = 200;
  options.jitter_seed = 7;
  RemoteCacheBackend backend("tcp://127.0.0.1:" + std::to_string(dead_port),
                             options);
  net::Jitter jitter(7);
  int tries = 0;
  EXPECT_FALSE(retry_with_window(backend, /*attempts=*/5, /*base_ms=*/10,
                                 jitter, [&] {
                                   ++tries;
                                   return backend.ping();
                                 }));
  EXPECT_EQ(tries, 5);
  EXPECT_EQ(backend.connect_attempts_for_test(), 5)
      << "every retry must wait out the reconnect window and really connect";
  EXPECT_GT(backend.retry_in_ms(), 0) << "the last failure arms a window";

  // Against a live daemon the first try succeeds and nothing is retried.
  ASSERT_TRUE(server_.start(dir_.string()));
  auto live = client();
  tries = 0;
  EXPECT_TRUE(retry_with_window(*live, 5, 10, jitter, [&] {
    ++tries;
    return live->ping();
  }));
  EXPECT_EQ(tries, 1);
  EXPECT_EQ(live->retry_in_ms(), 0);
}

}  // namespace
}  // namespace nnr::sched
