// perfbench_tool: the service benchmark of standoff_server.
//
//   perfbench_tool --workload=<point_read|scan_read|mixed_rw> --seed=N
//                  --seconds=S --trace=<0|1> --server=PATH --data=DIR
//                  [--ladder=RATE,RATE,... --p99-limit-ms=X]
//
// One load-generating process drives a standoff_server child over
// loopback. Reads are a closed loop over a fixed number of connections;
// mixed_rw adds one connection that sends writes open-loop at a fixed
// rate. Every answer is checked against the independent oracle
// (oracle.h). The last line on stdout is one JSON object: correct,
// attempted, failed and the metrics (end-to-end with --trace=0,
// per-layer with --trace=1). --ladder runs the open-loop reference rate
// ladder instead and prints one JSON line per rate.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "fsync_clock.h"
#include "layers.h"
#include "oracle.h"
#include "pin.h"
#include "server/client.h"
#include "server_proc.h"
#include "storage/ingest.h"
#include "storage/sharded_store.h"
#include "storage/snapshot.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using standoff::server::Client;
using standoff::server::QueryReply;

// Each run sets up this many times and reports the median set-up time.
constexpr int kSetups = 15;
// Server configuration, the same for every workload: two pool workers,
// an admission bound well above the client count, every write fsynced
// before its ack, and a compaction after this many pending delta rows.
constexpr uint32_t kServerWorkers = 2;
constexpr uint32_t kServerQueue = 8;
constexpr uint64_t kCompactThreshold = 70;
constexpr double kWarmupSeconds = 1.0;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server = PERFBENCH_SERVER_PATH;
  std::string data = ".bench_build/perfbench-data";
  std::vector<double> ladder;
  double p99_limit_ms = 0;
};

/// Operations attempted and failed, with the first failure kept for the
/// log.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void Fail(const std::string& what) {
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }
  void Add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    if (first_failure.empty()) first_failure = other.first_failure;
  }
};

/// Whether `reply` is `q`'s answer after k writes, for some k in
/// [lo, hi] (clamped to the answers `q` has).
bool Matches(const ReadQuery& q, const QueryReply& reply, size_t lo = 0,
             size_t hi = 0) {
  if (reply.busy) return false;
  hi = std::min(hi, q.answers.size() - 1);
  const uint64_t hash = HashPayload(reply.payload);
  for (size_t k = std::min(lo, hi); k <= hi; ++k) {
    const Answer& a = q.answers[k];
    if (reply.rows == a.rows && reply.payload.size() == a.bytes &&
        hash == a.hash) {
      return true;
    }
  }
  return false;
}

/// Counts one read in *tally: failed unless `reply` is `q`'s answer after
/// k writes for some k in [lo, hi]. Returns whether it passed.
bool CheckRead(const ReadQuery& q, const standoff::StatusOr<QueryReply>& reply,
               Tally* tally, size_t lo = 0, size_t hi = 0) {
  ++tally->attempted;
  if (reply.ok() && Matches(q, *reply, lo, hi)) return true;
  if (!reply.ok()) {
    tally->Fail(q.text + ": " + reply.status().ToString());
  } else if (reply->busy) {
    tally->Fail(q.text + ": busy after retries");
  } else {
    tally->Fail(q.text + ": wrong answer (" + std::to_string(reply->rows) +
                " rows)");
  }
  return false;
}

std::vector<std::string> ServerArgs(const std::string& snapshot,
                                    const std::string& wal) {
  return {"--snapshot=" + snapshot,
          "--workers=" + std::to_string(kServerWorkers),
          "--queue=" + std::to_string(kServerQueue),
          "--wal-dir=" + wal,
          "--wal-sync=always",
          "--compact-threshold=" + std::to_string(kCompactThreshold)};
}

double DirMb(const std::string& dir) {
  std::error_code ec;
  uintmax_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return static_cast<double>(bytes) / (1 << 20);
}

uint32_t Hardware() {
  return std::max<uint32_t>(1, std::thread::hardware_concurrency());
}

/// Ingests the StandOff texts, builds the region indexes and saves the
/// snapshot: the program's own set-up path.
bool IngestAndSave(const Workload& w, const std::string& path,
                   Tracer* tracer, uint64_t parent, std::string* error) {
  const uint32_t docs = static_cast<uint32_t>(w.corpus.standoff_xml.size());
  standoff::ThreadPool pool(std::min(Hardware(), docs) - 1);
  standoff::storage::ShardedStore store(w.shards);
  std::vector<standoff::storage::IngestInput> inputs;
  for (uint32_t d = 0; d < docs; ++d) {
    inputs.push_back({w.corpus.names[d], w.corpus.standoff_xml[d]});
  }
  {
    ScopedSpan span(tracer, "storage.AddDocumentsParallel", parent);
    auto ids = standoff::storage::AddDocumentsParallel(&store, inputs, &pool);
    if (!ids.ok()) {
      *error = "ingest: " + ids.status().ToString();
      return false;
    }
    for (uint32_t d = 0; d < docs; ++d) {
      auto st = store.SetBlob((*ids)[d], w.corpus.blobs[d]);
      if (!st.ok()) {
        *error = "blob: " + st.ToString();
        return false;
      }
    }
  }
  ScopedSpan span(tracer, "storage.SaveSnapshot", parent);
  standoff::storage::SnapshotWriteOptions options;
  options.pool = &pool;
  auto st = standoff::storage::SaveSnapshot(store, path, options);
  if (!st.ok()) {
    *error = "save: " + st.ToString();
    return false;
  }
  return true;
}

/// One set-up: from generated XML text to the server's first answered
/// query. Leaves the server running in *proc.
struct Setup {
  std::string dir, snapshot, wal;
  ServerProcess proc;
  double seconds = 0;        // wall time, less fsync_seconds
  double fsync_seconds = 0;  // blocked in SaveSnapshot's fsyncs
};

bool RunSetup(const Options& opt, const Workload& w, size_t probe,
              const std::string& dir, Tracer* tracer, Setup* out,
              Tally* tally, std::string* self_test_error,
              std::string* error) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  out->dir = dir;
  out->snapshot = dir + "/corpus.sosnap";
  out->wal = dir + "/wal";
  ScopedSpan setup(tracer, "setup");
  // Set-up runs on the one CPU of the wire phase, pool threads and the
  // server included: unpinned, its median followed the host's wake-up
  // latency and drifted by a quarter within an hour.
  PinToOneCpu pin;
  const int64_t t0 = NowNs();
  const int64_t fsync0 = FsyncNs();
  if (!IngestAndSave(w, out->snapshot, tracer, setup.id(), error)) {
    return false;
  }
  const int64_t fsync_ns = FsyncNs() - fsync0;
  {
    ScopedSpan span(tracer, "server.boot", setup.id());
    if (!out->proc.Start(opt.server, ServerArgs(out->snapshot, out->wal),
                         error)) {
      return false;
    }
  }
  auto client = Client::Connect(out->proc.port());
  if (!client.ok()) {
    *error = "connect: " + client.status().ToString();
    return false;
  }
  const ReadQuery& q = w.reads[probe];
  ScopedSpan span(tracer, "wire.first_query", setup.id());
  auto reply = (*client)->QueryWithRetry(q.text);
  out->seconds = (NowNs() - t0 - fsync_ns) / 1e9;
  out->fsync_seconds = fsync_ns / 1e9;
  if (!CheckRead(q, reply, tally)) {
    *self_test_error = "did not run: the first answer was wrong";
    return true;
  }
  // The checker must count a planted wrong row as a failed operation:
  // flip one byte of the last row of a correct answer. The planted read
  // has a tally of its own, so the run's failed share stays that of the
  // program's answers.
  QueryReply planted = *reply;
  planted.payload.back() ^= 1;
  Tally planted_tally;
  CheckRead(q, planted, &planted_tally);
  if (planted_tally.attempted != 1 || planted_tally.failed != 1) {
    *self_test_error = "the checker accepted a planted wrong row";
  }
  return true;
}

struct ReadTally {
  Tally tally;
  uint64_t busy_retries = 0;
  std::vector<double> rtt_us, exec_us;
  std::vector<double> after_write_us, steady_us;
  int64_t last_done_ns = 0;
};

/// Closed loop: one connection sends `order` round and round until
/// `deadline`; requests started at or after `measure_from` are timed.
/// `writes_done` counts the write replies received. Writes go out one
/// at a time, so a read sees the state after k writes for some k from
/// the count before it was sent to one more than the count after its
/// reply (the write in flight may already be applied).
void ReadLoop(uint16_t port, const std::vector<ReadQuery>& reads,
              const std::vector<uint32_t>& order, size_t offset,
              int64_t measure_from, int64_t deadline,
              const std::atomic<uint64_t>* writes_done, Tracer* tracer,
              ReadTally* out) {
  auto client = Client::Connect(port);
  if (!client.ok()) {
    ++out->tally.attempted;
    out->tally.Fail("connect: " + client.status().ToString());
    return;
  }
  uint64_t seen_writes = writes_done->load();
  for (size_t i = offset; NowNs() < deadline; ++i) {
    const ReadQuery& q = reads[order[i % order.size()]];
    const uint64_t before = writes_done->load();
    const bool after_write = before != seen_writes;
    seen_writes = before;
    const uint64_t request = tracer->enabled() ? tracer->NewId() : 0;
    const int64_t t0 = NowNs();
    auto reply = [&] {
      ScopedSpan span(tracer, "wire.QueryWithRetry", 0, request);
      return (*client)->QueryWithRetry(q.text);
    }();
    const int64_t t1 = NowNs();
    if (!CheckRead(q, reply, &out->tally, before, writes_done->load() + 1)) {
      if (!reply.ok()) {
        auto again = Client::Connect(port);
        if (again.ok()) client = std::move(again);
      }
      continue;
    }
    out->busy_retries += static_cast<uint64_t>(reply->attempts - 1);
    if (t0 < measure_from) continue;
    const double rtt = (t1 - t0) / 1e3;
    out->rtt_us.push_back(rtt);
    out->exec_us.push_back(static_cast<double>(reply->server_micros));
    (after_write ? out->after_write_us : out->steady_us).push_back(rtt);
    out->last_done_ns = t1;
  }
}

struct WriteTally {
  Tally tally;
  std::vector<double> latency_us;
  std::vector<WriteOp> acked;  // in acknowledgement (= sequence) order
  double max_late_ms = 0;      // how far the generator fell behind
};

/// Sends `ops` on one connection, open loop at `rate` per second from
/// `start_ns`; each latency counts from the op's scheduled time.
/// *writes_done counts the replies, acknowledged or not.
void WriteLoop(uint16_t port, const std::vector<WriteOp>& ops, double rate,
               int64_t start_ns, std::atomic<uint64_t>* writes_done,
               Tracer* tracer, WriteTally* out) {
  auto client = Client::Connect(port);
  if (!client.ok()) {
    ++out->tally.attempted;
    out->tally.Fail("connect: " + client.status().ToString());
    return;
  }
  for (size_t j = 0; j < ops.size(); ++j) {
    const WriteOp& op = ops[j];
    const int64_t scheduled = start_ns + static_cast<int64_t>(j * 1e9 / rate);
    const int64_t wait = scheduled - NowNs();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    } else {
      out->max_late_ms = std::max(out->max_late_ms, -wait / 1e6);
    }
    const uint64_t request = tracer->enabled() ? tracer->NewId() : 0;
    auto seq = [&] {
      ScopedSpan span(tracer, op.insert ? "wire.InsertRegion"
                                        : "wire.DeleteRegions",
                      0, request);
      return op.insert ? (*client)->InsertRegion(op.doc, op.id, op.start,
                                                 op.end)
                       : (*client)->DeleteRegions(op.doc, op.id);
    }();
    const int64_t done = NowNs();
    writes_done->fetch_add(1);
    ++out->tally.attempted;
    if (!seq.ok()) {
      out->tally.Fail(std::string(op.insert ? "insert" : "delete") + " id " +
                      std::to_string(op.id) + ": " + seq.status().ToString());
      continue;
    }
    out->acked.push_back(op);
    out->latency_us.push_back((done - scheduled) / 1e3);
  }
}

/// Waits until no threshold compaction is pending or running.
void SettleCompactions(Client* admin) {
  for (int i = 0; i < 600; ++i) {
    auto stats = admin->Stats();
    if (!stats.ok()) return;
    if (stats->delta_live_rows + stats->delta_live_tombstones <
        kCompactThreshold) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

/// After kill -9 and a restart on the same WAL directory, reads every
/// written id back and compares with the brute-force evaluation over
/// base regions plus the model of acknowledged writes.
void CheckDurability(const Workload& w, uint16_t port,
                     const std::vector<WriteOp>& acked, Tally* tally) {
  RegionModel model = BaseRegions(w.write_standoff_tree);
  for (const WriteOp& op : acked) ApplyWrite(op, &model);
  auto client = Client::Connect(port);
  for (const Chain& chain : w.durability_chains) {
    ++tally->attempted;
    const std::string text = ChainText(chain);
    if (!client.ok()) {
      tally->Fail("durability connect: " + client.status().ToString());
      continue;
    }
    const std::string expected =
        BruteChainPayload(w.write_standoff_tree, model, chain);
    auto reply = (*client)->QueryWithRetry(text);
    if (!reply.ok() || reply->busy || reply->payload != expected) {
      tally->Fail("after restart, " + text + " disagrees with the model");
    }
  }
}

std::vector<uint32_t> Shuffled(size_t n, uint64_t seed) {
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

struct Metric {
  double value;
  std::string unit;
};

void PrintResult(bool correct, const Tally& tally,
                 const std::map<std::string, Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(tally.attempted) +
                    ", \"failed\": " + std::to_string(tally.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.9g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += std::string(first ? "" : ", ") + "\"" + name +
           "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/// The open-loop reference ladder: for each rate, `seconds` of sends
/// spread evenly over the read connections, each timed from its
/// scheduled send. Prints one JSON line per rate.
void RunLadder(const Options& opt, const Workload& w, uint16_t port,
               Tally* tally) {
  const uint32_t conns = std::min(w.readers, Hardware());
  for (double rate : opt.ladder) {
    std::vector<std::vector<double>> lat(conns);
    std::vector<Tally> tallies(conns);
    std::vector<double> end_late_ms(conns, 0);
    const int64_t start = NowNs() + 50 * 1000 * 1000;
    const size_t total = static_cast<size_t>(rate * opt.seconds);
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        auto client = Client::Connect(port);
        if (!client.ok()) {
          ++tallies[c].attempted;
          tallies[c].Fail("connect");
          return;
        }
        const std::vector<uint32_t> order =
            Shuffled(w.reads.size(), opt.seed * 31 + c);
        size_t sent = 0;
        for (size_t k = c; k < total; k += conns, ++sent) {
          const int64_t scheduled =
              start + static_cast<int64_t>(k * 1e9 / rate);
          const int64_t wait = scheduled - NowNs();
          if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
          }
          end_late_ms[c] = std::max<double>(0, -wait / 1e6);
          const ReadQuery& q = w.reads[order[sent % order.size()]];
          auto reply = (*client)->QueryWithRetry(q.text);
          if (!CheckRead(q, reply, &tallies[c])) continue;
          lat[c].push_back((NowNs() - scheduled) / 1e3);
        }
      });
    }
    for (auto& t : threads) t.join();
    std::vector<double> all;
    double late = 0;
    for (uint32_t c = 0; c < conns; ++c) {
      all.insert(all.end(), lat[c].begin(), lat[c].end());
      tally->Add(tallies[c]);
      late = std::max(late, end_late_ms[c]);
    }
    const double p50 = Percentile(all, 0.5) / 1e3;
    const double p99 = Percentile(all, 0.99) / 1e3;
    const bool meets = p99 <= opt.p99_limit_ms && late <= opt.p99_limit_ms;
    std::printf(
        "{\"ladder_rate\": %.0f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
        "\"samples\": %zu, \"late_at_end_ms\": %.3f, \"meets_limit\": %s}\n",
        rate, p50, p99, all.size(), late, meets ? "true" : "false");
    std::fflush(stdout);
  }
}

int Run(const Options& opt) {
  Workload w;
  std::string error;
  if (!BuildWorkload(opt.workload, opt.seed, opt.seconds, &w, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  size_t probe = 0;
  while (probe < w.reads.size() && w.reads[probe].answers[0].rows == 0) {
    ++probe;
  }
  if (probe == w.reads.size()) {
    std::fprintf(stderr, "perfbench: every read answer is empty\n");
    return 1;
  }
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu distinct reads, %zu "
                       "writes\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               w.reads.size(), w.writes.size());
  for (size_t d = 0; d < w.corpus.trees.size(); ++d) {
    std::fprintf(stderr,
                 "perfbench: doc %zu: %zu elements, %.2f MiB StandOff XML, "
                 "%.2f MiB base text\n",
                 d, w.corpus.trees[d].node_count(),
                 w.corpus.standoff_xml[d].size() / 1048576.0,
                 w.corpus.blobs[d].size() / 1048576.0);
  }

  Tracer tracer(opt.trace);
  const std::string root = opt.data + "/" + opt.workload + "-" +
                           std::to_string(::getpid());
  Tally tally;
  std::string self_test_error;
  std::vector<double> setup_seconds, setup_fsync_seconds;
  Setup setup;
  const int setups = opt.trace || !opt.ladder.empty() ? 1 : kSetups;
  for (int s = 0; s < setups; ++s) {
    if (s > 0) {
      setup.proc.Stop();
      std::error_code ec;
      fs::remove_all(setup.dir, ec);
    }
    if (!RunSetup(opt, w, probe, root + "/setup" + std::to_string(s),
                  &tracer, &setup, &tally, &self_test_error, &error)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
      std::error_code ec;
      fs::remove_all(root, ec);
      return 1;
    }
    setup_seconds.push_back(setup.seconds);
    setup_fsync_seconds.push_back(setup.fsync_seconds);
  }
  const uint16_t port = setup.proc.port();

  if (!opt.ladder.empty()) {
    {
      PinToOneCpu pin;
      RunLadder(opt, w, port, &tally);
    }
    setup.proc.Stop();
    std::error_code ec;
    fs::remove_all(root, ec);
    std::fprintf(stderr, "perfbench: ladder attempted %llu failed %llu %s\n",
                 static_cast<unsigned long long>(tally.attempted),
                 static_cast<unsigned long long>(tally.failed),
                 tally.first_failure.c_str());
    return 0;
  }

  auto pin = std::make_unique<PinToOneCpu>();
  auto admin = Client::Connect(port);
  if (!admin.ok()) {
    std::fprintf(stderr, "perfbench: connect failed\n");
    setup.proc.Stop();
    std::error_code ec;
    fs::remove_all(root, ec);
    return 1;
  }
  const uint32_t readers = std::min(w.readers, Hardware());
  const int64_t measure_from =
      NowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t deadline = measure_from + static_cast<int64_t>(opt.seconds * 1e9);
  std::atomic<uint64_t> writes_done{0};
  std::vector<ReadTally> read_tallies(readers);
  std::vector<std::thread> threads;
  for (uint32_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      const std::vector<uint32_t> order =
          Shuffled(w.reads.size(), opt.seed * 31 + r);
      ReadLoop(port, w.reads, order, r * order.size() / readers, measure_from,
               deadline, &writes_done, &tracer, &read_tallies[r]);
    });
  }
  const bool open_loop = w.writes_during_reads;
  WriteTally writes;
  std::thread writer;
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(measure_from - NowNs()));
  auto stats_before = (*admin)->Stats();
  const double cpu_before = setup.proc.CpuSeconds();
  if (open_loop) {
    writer = std::thread([&] {
      WriteLoop(port, w.writes, w.write_rate, measure_from, &writes_done,
                &tracer, &writes);
    });
  }
  // The main thread samples the server's resident set while the loops
  // run: its peak moves by a third from run to run with how a
  // compaction's two snapshot generations overlap, its median does not.
  std::vector<double> rss_samples;
  while (NowNs() < deadline) {
    rss_samples.push_back(setup.proc.RssMb());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  for (auto& t : threads) t.join();
  if (writer.joinable()) writer.join();
  const double cpu_after = setup.proc.CpuSeconds();
  ReadTally reads;
  for (const ReadTally& t : read_tallies) {
    reads.tally.Add(t.tally);
    reads.busy_retries += t.busy_retries;
    reads.rtt_us.insert(reads.rtt_us.end(), t.rtt_us.begin(), t.rtt_us.end());
    reads.exec_us.insert(reads.exec_us.end(), t.exec_us.begin(),
                         t.exec_us.end());
    reads.after_write_us.insert(reads.after_write_us.end(),
                                t.after_write_us.begin(),
                                t.after_write_us.end());
    reads.steady_us.insert(reads.steady_us.end(), t.steady_us.begin(),
                           t.steady_us.end());
    reads.last_done_ns = std::max(reads.last_done_ns, t.last_done_ns);
  }
  tally.Add(reads.tally);
  auto stats_after = (*admin)->Stats();
  // The traced runs of the read-only workloads end with a write probe,
  // after the reads: it measures acknowledged-write latency there.
  if (!open_loop && opt.trace) {
    WriteLoop(port, w.writes, w.write_rate, NowNs(), &writes_done, &tracer,
              &writes);
  }
  tally.Add(writes.tally);
  SettleCompactions(admin->get());
  auto stats_final = (*admin)->Stats();
  admin->reset();
  const double disk_mb = DirMb(setup.dir);

  // Crash and recover: kill -9, restart on the same WAL directory.
  // mixed_rw then reads every written id back.
  double replay_ms = 0;
  if (open_loop || opt.trace) {
    setup.proc.Kill9();
    ScopedSpan span(&tracer, "server.restart_after_kill9");
    const int64_t t0 = NowNs();
    ServerProcess restarted;
    if (!restarted.Start(opt.server, ServerArgs(setup.snapshot, setup.wal),
                         &error)) {
      ++tally.attempted;
      tally.Fail("restart after kill -9: " + error);
    } else {
      replay_ms = (NowNs() - t0) / 1e6;
      if (open_loop) {
        CheckDurability(w, restarted.port(), writes.acked, &tally);
      }
      restarted.Stop();
    }
  }
  setup.proc.Stop();
  pin.reset();

  std::map<std::string, Metric> metrics;
  const double window_s =
      std::max(1e-9, (reads.last_done_ns - measure_from) / 1e9);
  if (!opt.trace) {
    metrics["setup_s"] = {Median(setup_seconds), "s"};
    metrics["read_qps"] = {reads.rtt_us.size() / window_s, "1/s"};
    metrics["read_p50_ms"] = {Median(reads.rtt_us) / 1e3, "ms"};
    metrics["rss_mb"] = {Median(rss_samples), "MB"};
    metrics["disk_mb"] = {disk_mb, "MB"};
  } else {
    std::vector<double> overhead;
    for (size_t i = 0; i < reads.rtt_us.size(); ++i) {
      overhead.push_back(reads.rtt_us[i] - reads.exec_us[i]);
    }
    const double ops = static_cast<double>(reads.rtt_us.size() +
                                           (open_loop ? writes.acked.size() : 0));
    metrics["server.overhead_us"] = {Median(overhead), "us"};
    metrics["server.exec_us"] = {Median(reads.exec_us), "us"};
    metrics["server.cpu_us_per_op"] = {
        (cpu_after - cpu_before) * 1e6 / std::max(1.0, ops), "us"};
    metrics["server.busy_retries"] = {static_cast<double>(reads.busy_retries),
                                      "count"};
    metrics["server.read_after_write_us"] = {Median(reads.after_write_us),
                                             "us"};
    metrics["server.read_steady_us"] = {Median(reads.steady_us), "us"};
    metrics["server.write_ack_us"] = {Median(writes.latency_us), "us"};
    if (stats_before.ok() && stats_after.ok() && stats_final.ok()) {
      metrics["memo.hits"] = {
          static_cast<double>(stats_after->subplan_hits -
                              stats_before->subplan_hits),
          "count"};
      metrics["memo.misses"] = {
          static_cast<double>(stats_after->subplan_misses -
                              stats_before->subplan_misses),
          "count"};
      metrics["compaction.count"] = {
          static_cast<double>(stats_final->auto_compactions), "count"};
      metrics["wal.fsyncs_per_write"] = {
          static_cast<double>(stats_final->wal_fsyncs) /
              std::max<uint64_t>(1, stats_final->wal_appends),
          "count"};
    }
    metrics["wal.replay_ms"] = {replay_ms, "ms"};
    metrics["setup.fsync_ms"] = {Median(setup_fsync_seconds) * 1e3, "ms"};
    LayerContext ctx{w, root + "/layers", kCompactThreshold, &tracer};
    std::map<std::string, std::pair<double, std::string>> layers;
    if (!MeasureLayers(ctx, &layers, &error)) {
      std::fprintf(stderr, "perfbench: layer measurement failed: %s\n",
                   error.c_str());
      std::error_code ec;
      fs::remove_all(root, ec);
      return 1;
    }
    for (const auto& [name, value] : layers) {
      metrics[name] = {value.first, value.second};
    }
    const std::string trace_path = opt.data + "/trace-" + opt.workload +
                                   "-" + std::to_string(opt.seed) + ".jsonl";
    if (tracer.WriteJsonLines(trace_path)) {
      std::fprintf(stderr, "perfbench: spans written to %s\n",
                   trace_path.c_str());
    }
  }
  std::error_code ec;
  fs::remove_all(root, ec);

  std::fprintf(stderr,
               "perfbench: reads %zu in %.2f s, writes acked %zu (generator "
               "late by up to %.1f ms), setups %s s, of which fsync "
               "%.1f ms (median) is not counted\n",
               reads.rtt_us.size(), window_s, writes.acked.size(),
               writes.max_late_ms,
               [&] {
                 std::string s;
                 for (double v : setup_seconds) {
                   s += (s.empty() ? "" : ",") + std::to_string(v);
                 }
                 return s;
               }()
                   .c_str(),
               Median(setup_fsync_seconds) * 1e3);
  if (!tally.first_failure.empty()) {
    std::fprintf(stderr, "perfbench: first failure: %s\n",
                 tally.first_failure.c_str());
  }
  if (!self_test_error.empty()) {
    std::fprintf(stderr, "perfbench: self-test: %s\n",
                 self_test_error.c_str());
  }
  PrintResult(self_test_error.empty(), tally, metrics);
  return 0;
}

bool TakeFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (perfbench::TakeFlag(argv[i], "--workload", &v)) {
      opt.workload = v;
    } else if (perfbench::TakeFlag(argv[i], "--seed", &v)) {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (perfbench::TakeFlag(argv[i], "--seconds", &v)) {
      opt.seconds = std::atof(v.c_str());
    } else if (perfbench::TakeFlag(argv[i], "--trace", &v)) {
      opt.trace = v == "1";
    } else if (perfbench::TakeFlag(argv[i], "--server", &v)) {
      opt.server = v;
    } else if (perfbench::TakeFlag(argv[i], "--data", &v)) {
      opt.data = v;
    } else if (perfbench::TakeFlag(argv[i], "--ladder", &v)) {
      for (size_t pos = 0; pos < v.size();) {
        const size_t comma = v.find(',', pos);
        opt.ladder.push_back(std::atof(v.substr(pos, comma - pos).c_str()));
        pos = comma == std::string::npos ? v.size() : comma + 1;
      }
    } else if (perfbench::TakeFlag(argv[i], "--p99-limit-ms", &v)) {
      opt.p99_limit_ms = std::atof(v.c_str());
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (opt.workload.empty() || opt.server.empty() || !(opt.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: perfbench_tool --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --server=PATH [--data=DIR]\n");
    return 2;
  }
  return perfbench::Run(opt);
}
