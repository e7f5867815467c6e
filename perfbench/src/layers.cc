#include "layers.h"

#include <time.h>

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "pin.h"
#include "server/query_text.h"
#include "standoff/merge_join.h"
#include "standoff/parallel_join.h"
#include "standoff/plan.h"
#include "standoff/region_index.h"
#include "storage/column_stats.h"
#include "storage/delta.h"
#include "storage/ingest.h"
#include "storage/sharded_store.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "xml/dom.h"
#include "xquery/engine.h"
#include "xquery/parser.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace so = standoff::so;
namespace storage = standoff::storage;
namespace xquery = standoff::xquery;
using standoff::Status;
using standoff::ThreadPool;

// The server's pool size (main.cc): compaction merges fan out over it.
constexpr size_t kServerWorkers = 2;
// Chains and FLWORs sampled from the pool for the engine layers.
constexpr size_t kEngineSample = 48;
constexpr size_t kColdSample = 16;

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec / 1e9;
}

size_t Hardware() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

/// Runs `fn` `reps` times, each inside a span; median wall seconds.
template <typename Fn>
double MedianSeconds(Tracer* tracer, const char* span, int reps, Fn fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    {
      ScopedSpan s(tracer, span);
      fn();
    }
    times.push_back((NowNs() - t0) / 1e9);
  }
  return Median(times);
}

/// Collects the first failed status of a sequence of layer calls.
struct FirstError {
  std::string message;
  void Check(const Status& st, const char* what) {
    if (!st.ok() && message.empty()) message = std::string(what) + ": " + st.ToString();
  }
};

so::StandoffOp OpOf(xquery::Axis axis) {
  switch (axis) {
    case xquery::Axis::kSelectWide: return so::StandoffOp::kSelectWide;
    case xquery::Axis::kRejectNarrow: return so::StandoffOp::kRejectNarrow;
    case xquery::Axis::kRejectWide: return so::StandoffOp::kRejectWide;
    default: return so::StandoffOp::kSelectNarrow;
  }
}

/// A chain spec built straight from a region index, for PlanChain: the
/// context layer's regions as loop-lifted rows and one candidate layer
/// per step (the index restricted to the step's name).
struct PlannedChain {
  std::vector<std::vector<storage::Pre>> ids;  // per layer
  std::vector<so::RegionColumnsData> columns;  // per edge
  so::ChainSpec spec;
};

std::vector<storage::Pre> LayerIds(const storage::StoreView& store,
                                   storage::DocId doc,
                                   const so::RegionIndex& index, bool any,
                                   const std::string& name) {
  std::vector<storage::Pre> ids;
  const storage::NameId id = store.names().Lookup(name);
  const storage::NodeTable& table = store.table(doc);
  for (storage::Pre pre : index.annotated_ids()) {
    if (any || (table.IsElement(pre) && table.name(pre) == id)) {
      ids.push_back(pre);
    }
  }
  return ids;
}

std::unique_ptr<PlannedChain> BuildSpec(const storage::StoreView& store,
                                        const xquery::ChainQuery& q,
                                        const so::RegionIndex& index) {
  auto out = std::make_unique<PlannedChain>();
  out->ids.push_back(
      LayerIds(store, q.doc, index, q.context_any, q.context_name));
  for (const xquery::ChainStep& step : q.steps) {
    out->ids.push_back(LayerIds(store, q.doc, index, step.any_name, step.name));
  }
  so::ChainSpec& spec = out->spec;
  const std::vector<storage::Pre>& ctx = out->ids[0];
  spec.iter_count = static_cast<uint32_t>(ctx.size());
  std::vector<int64_t> starts, ends;
  for (uint32_t i = 0; i < ctx.size(); ++i) {
    index.ForEachRegionOf(ctx[i], [&](int64_t s, int64_t e) {
      spec.context.push_back(so::IterRegion{
          i, s, e, static_cast<uint32_t>(spec.ann_iters.size())});
      spec.ann_iters.push_back(i);
      starts.push_back(s);
      ends.push_back(e);
    });
  }
  spec.context_stats =
      storage::RegionStats::Compute(starts.data(), ends.data(), starts.size());
  out->columns.reserve(q.steps.size());
  for (size_t e = 0; e < q.steps.size(); ++e) {
    out->columns.push_back(index.IntersectColumns(out->ids[e + 1]));
    so::ChainEdge edge;
    edge.op = OpOf(q.steps[e].axis);
    edge.layer.columns = out->columns.back().View();
    edge.layer.ids = out->ids[e + 1];
    edge.layer.ids_set = true;
    edge.layer.index = &index;
    edge.layer.stats = storage::RegionStats::Compute(
        edge.layer.columns.start, edge.layer.columns.end,
        edge.layer.columns.size);
    spec.edges.push_back(std::move(edge));
  }
  return out;
}

/// Every `stride`-th parsed query of a kind, up to `limit`.
std::vector<standoff::server::ParsedQuery> Sample(
    const std::vector<ReadQuery>& reads,
    standoff::server::ParsedQuery::Kind kind, size_t limit) {
  std::vector<standoff::server::ParsedQuery> all;
  for (const ReadQuery& q : reads) {
    auto parsed = standoff::server::ParseQueryText(q.text);
    if (parsed.ok() && parsed->kind == kind) all.push_back(*parsed);
  }
  std::vector<standoff::server::ParsedQuery> out;
  const size_t stride = std::max<size_t>(1, all.size() / limit);
  for (size_t i = 0; i < all.size() && out.size() < limit; i += stride) {
    out.push_back(all[i]);
  }
  return out;
}

/// The first `n` writes of the stream applied to a fresh mutable store
/// (no WAL): the pending delta a compaction threshold allows.
std::unique_ptr<storage::MutableStore> PendingStore(
    std::shared_ptr<const storage::ShardedStore> base,
    const std::vector<WriteOp>& writes, uint64_t n, FirstError* err) {
  auto store = std::make_unique<storage::MutableStore>(std::move(base));
  const std::string fp = so::ConfigFingerprint(so::StandoffConfig{});
  for (uint64_t i = 0; i < n && i < writes.size(); ++i) {
    const WriteOp& op = writes[i];
    if (op.insert) {
      err->Check(store->InsertRegion(op.doc, fp, op.start, op.end, op.id)
                     .status(),
                 "InsertRegion");
    } else {
      err->Check(store->DeleteRegions(op.doc, fp, op.id).status(),
                 "DeleteRegions");
    }
  }
  return store;
}

}  // namespace

bool MeasureLayers(const LayerContext& ctx,
                   std::map<std::string, std::pair<double, std::string>>* out,
                   std::string* error) {
  const Workload& w = ctx.workload;
  Tracer* tracer = ctx.tracer;
  FirstError err;
  std::error_code ec;
  fs::remove_all(ctx.scratch_dir, ec);
  fs::create_directories(ctx.scratch_dir, ec);
  auto put = [&](const char* name, double value, const char* unit) {
    (*out)[name] = {value, unit};
  };
  const size_t docs = w.corpus.standoff_xml.size();

  // xml, storage: parse, ingest, snapshot save and open, index build, on
  // one CPU as the benchmark's set-up runs.
  auto pin = std::make_unique<PinToOneCpu>();
  put("xml.parse_ms", 1e3 * MedianSeconds(tracer, "xml.Parse", 3, [&] {
        err.Check(standoff::xml::Parse(w.corpus.standoff_xml[0]).status(),
                  "xml::Parse");
      }), "ms");
  ThreadPool ingest_pool(std::min(Hardware(), docs) - 1);
  std::unique_ptr<storage::ShardedStore> built;
  put("ingest.ms",
      1e3 * MedianSeconds(tracer, "storage.AddDocumentsParallel", 3, [&] {
        built = std::make_unique<storage::ShardedStore>(w.shards);
        std::vector<storage::IngestInput> inputs;
        for (size_t d = 0; d < docs; ++d) {
          inputs.push_back({w.corpus.names[d], w.corpus.standoff_xml[d]});
        }
        auto ids = storage::AddDocumentsParallel(built.get(), inputs,
                                                 &ingest_pool);
        err.Check(ids.status(), "AddDocumentsParallel");
        if (!ids.ok()) return;
        for (size_t d = 0; d < docs; ++d) {
          err.Check(built->SetBlob((*ids)[d], w.corpus.blobs[d]), "SetBlob");
        }
      }), "ms");
  if (!err.message.empty()) {
    *error = err.message;
    return false;
  }
  const std::string snap = ctx.scratch_dir + "/layers.sosnap";
  storage::SnapshotWriteOptions save_options;
  save_options.pool = &ingest_pool;
  put("snapshot.save_ms",
      1e3 * MedianSeconds(tracer, "storage.SaveSnapshot", 3, [&] {
        err.Check(storage::SaveSnapshot(*built, snap, save_options),
                  "SaveSnapshot");
      }), "ms");
  put("snapshot.mb", static_cast<double>(fs::file_size(snap, ec)) / (1 << 20),
      "MB");
  std::unique_ptr<storage::Snapshot> snapshot;
  put("snapshot.open_ms",
      1e3 * MedianSeconds(tracer, "storage.Snapshot::Open", 3, [&] {
        auto opened = storage::Snapshot::Open(snap);
        err.Check(opened.status(), "Snapshot::Open");
        if (opened.ok()) snapshot = opened.MoveValueUnsafe();
      }), "ms");
  if (!err.message.empty() || snapshot == nullptr) {
    *error = err.message;
    return false;
  }
  const std::shared_ptr<const storage::ShardedStore> store =
      snapshot->shared_store();
  const so::StandoffConfig config;
  put("region_index.build_ms",
      1e3 * MedianSeconds(tracer, "so::RegionIndex::Build", 3, [&] {
        err.Check(so::RegionIndex::Build(store->table(0),
                                         so::Resolve(config, store->names()))
                      .status(),
                  "RegionIndex::Build");
      }), "ms");
  pin.reset();

  // server and xquery text parsing: per call, over the whole pool.
  constexpr int kParseRounds = 20;
  std::vector<std::string> flwors;
  for (const ReadQuery& q : w.reads) {
    if (q.text.rfind("flwor ", 0) == 0) flwors.push_back(q.text.substr(6));
  }
  put("server.parse_us",
      1e6 * MedianSeconds(tracer, "server::ParseQueryText", 5, [&] {
        for (int r = 0; r < kParseRounds; ++r) {
          for (const ReadQuery& q : w.reads) {
            err.Check(standoff::server::ParseQueryText(q.text).status(),
                      "ParseQueryText");
          }
        }
      }) / (kParseRounds * w.reads.size()), "us");
  put("xquery.parse_us",
      1e6 * MedianSeconds(tracer, "xquery::ParseQuery", 5, [&] {
        for (int r = 0; r < kParseRounds; ++r) {
          for (const std::string& text : flwors) {
            err.Check(xquery::ParseQuery(text).status(), "ParseQuery");
          }
        }
      }) / (kParseRounds * std::max<size_t>(1, flwors.size())), "us");

  // common: time from ThreadPool::Submit to the task starting, one task
  // at a time as the server hands queries over, on the one CPU the wire
  // phase runs on.
  {
    PinToOneCpu pin;
    ThreadPool pool(kServerWorkers);
    std::vector<double> handoff;
    std::mutex mu;
    std::condition_variable cv;
    for (int i = 0; i < 2000; ++i) {
      ScopedSpan span(tracer, "ThreadPool::Submit");
      bool done = false;
      int64_t started = 0;
      const int64_t submitted = NowNs();
      pool.Submit([&] {
        const int64_t now = NowNs();
        std::lock_guard<std::mutex> lock(mu);
        started = now;
        done = true;
        cv.notify_one();
      });
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done; });
      handoff.push_back((started - submitted) / 1e3);
    }
    put("pool.handoff_us", Median(handoff), "us");
  }

  // xquery engine: warm chains with sharing off, warm FLWORs.
  using Kind = standoff::server::ParsedQuery::Kind;
  const auto chains = Sample(w.reads, Kind::kChain, kEngineSample);
  const auto flwor_sample = Sample(w.reads, Kind::kFlwor, kEngineSample);
  {
    xquery::Engine engine(store.get());
    engine.mutable_options()->share_subplans = false;
    std::vector<double> chain_us, flwor_us;
    for (const auto& q : chains) {
      err.Check(engine.EvaluateChain(q.chain).status(), "EvaluateChain");
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer, "xquery::Engine::EvaluateChain");
        err.Check(engine.EvaluateChain(q.chain).status(), "EvaluateChain");
      }
      chain_us.push_back((NowNs() - t0) / 1e3);
    }
    for (const auto& q : flwor_sample) {
      err.Check(engine.Evaluate(q.flwor).status(), "Evaluate");
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer, "xquery::Engine::Evaluate");
        err.Check(engine.Evaluate(q.flwor).status(), "Evaluate");
      }
      flwor_us.push_back((NowNs() - t0) / 1e3);
    }
    put("engine.chain_us", Median(chain_us), "us");
    put("engine.flwor_us", Median(flwor_us), "us");
  }

  // standoff planner: PlanChain over the sampled chains.
  {
    so::RegionIndexCache cache;
    std::vector<double> plan_us;
    double bottom_up = 0;
    for (const auto& q : chains) {
      auto index = cache.Get(*store, q.chain.doc, config);
      err.Check(index.status(), "RegionIndexCache::Get");
      if (!index.ok()) break;
      const auto planned = BuildSpec(*store, q.chain, **index);
      constexpr int kPlans = 200;
      so::ChainPlan plan;
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer, "so::PlanChain");
        for (int i = 0; i < kPlans; ++i) plan = so::PlanChain(planned->spec);
      }
      plan_us.push_back((NowNs() - t0) / 1e3 / kPlans);
      bottom_up += plan.order == so::ChainOrder::kBottomUpLast;
    }
    put("plan.plan_us", Median(plan_us), "us");
    put("plan.bottom_up_chains", bottom_up, "count");
  }

  // standoff join kernels: every annotated element of document 0 as a
  // loop-lifted context, select-narrow over the whole index.
  {
    so::RegionIndexCache cache;
    auto index = cache.Get(*store, 0, config);
    err.Check(index.status(), "RegionIndexCache::Get");
    if (!index.ok()) {
      *error = err.message;
      return false;
    }
    const so::RegionIndex& idx = **index;
    std::vector<so::IterRegion> context;
    std::vector<uint32_t> ann_iters;
    const auto ids = idx.annotated_ids();
    for (uint32_t i = 0; i < ids.size(); ++i) {
      idx.ForEachRegionOf(ids[i], [&](int64_t s, int64_t e) {
        context.push_back(so::IterRegion{
            i, s, e, static_cast<uint32_t>(ann_iters.size())});
        ann_iters.push_back(i);
      });
    }
    const uint32_t iters = static_cast<uint32_t>(ids.size());
    so::JoinArena arena;
    std::vector<so::IterMatch> matches;
    const auto serial = [&](standoff::simd::Level level) {
      so::JoinOptions options;
      options.arena = &arena;
      options.simd = level;
      matches.clear();
      err.Check(so::LoopLiftedStandoffJoinColumns(
                    so::StandoffOp::kSelectNarrow, context, ann_iters,
                    idx.columns(), ids, iters, &matches, options),
                "LoopLiftedStandoffJoinColumns");
    };
    serial(standoff::simd::Level::kAuto);  // warm the arena
    const double t_auto = MedianSeconds(
        tracer, "so::LoopLiftedStandoffJoinColumns", 5,
        [&] { serial(standoff::simd::Level::kAuto); });
    const double t_scalar = MedianSeconds(
        tracer, "so::LoopLiftedStandoffJoinColumns.scalar", 5,
        [&] { serial(standoff::simd::Level::kScalar); });
    put("join.ns_per_row",
        t_auto * 1e9 / std::max<size_t>(1, context.size() + idx.size()), "ns");
    put("join.simd_speedup", t_scalar / t_auto, "x");

    ThreadPool pool(Hardware() - 1);
    so::JoinArenaPool arenas;
    const auto parallel = [&](ThreadPool* p) {
      so::ParallelJoinOptions options;
      options.pool = p;
      options.arenas = &arenas;
      matches.clear();
      err.Check(so::ParallelLoopLiftedStandoffJoinColumns(
                    so::StandoffOp::kSelectNarrow, context, ann_iters,
                    idx.columns(), ids, iters, &matches, options),
                "ParallelLoopLiftedStandoffJoinColumns");
    };
    parallel(&pool);
    parallel(nullptr);
    double cpu0 = CpuSeconds();
    const double t_one = MedianSeconds(
        tracer, "so::ParallelLoopLiftedStandoffJoinColumns.1", 5,
        [&] { parallel(nullptr); });
    const double cpu_one = CpuSeconds() - cpu0;
    cpu0 = CpuSeconds();
    const double t_all = MedianSeconds(
        tracer, "so::ParallelLoopLiftedStandoffJoinColumns.nproc", 5,
        [&] { parallel(&pool); });
    const double cpu_all = CpuSeconds() - cpu0;
    put("join.parallel_speedup", t_one / t_all, "x");
    put("join.parallel_cpu_ratio", cpu_all / std::max(1e-9, cpu_one), "x");
  }

  // storage delta and WAL, standoff merge-on-read, compaction.
  {
    so::RegionIndexCache cache;
    auto index = cache.Get(*store, w.write_doc, config);
    err.Check(index.status(), "RegionIndexCache::Get");
    if (!index.ok()) {
      *error = err.message;
      return false;
    }
    storage::DeltaRun run;
    for (uint64_t i = 0; i < ctx.pending_delta && i < w.writes.size(); ++i) {
      const WriteOp& op = w.writes[i];
      if (op.insert) {
        run.inserts.push_back({op.start, op.end, op.id, i + 1});
      } else {
        run.tombstones.push_back({op.id, i + 1});
      }
    }
    std::sort(run.inserts.begin(), run.inserts.end(),
              [](const storage::DeltaInsert& a, const storage::DeltaInsert& b) {
                return std::tie(a.start, a.end, a.id) <
                       std::tie(b.start, b.end, b.id);
              });
    std::sort(run.tombstones.begin(), run.tombstones.end(),
              [](const storage::DeltaTombstone& a,
                 const storage::DeltaTombstone& b) { return a.id < b.id; });
    run.tombstones.erase(
        std::unique(run.tombstones.begin(), run.tombstones.end(),
                    [](const storage::DeltaTombstone& a,
                       const storage::DeltaTombstone& b) {
                      return a.id == b.id;
                    }),
        run.tombstones.end());
    run.seq = ctx.pending_delta;
    put("region_index.merge_delta_ms",
        1e3 * MedianSeconds(tracer, "so::MergeBaseDelta", 5, [&] {
          so::MergeBaseDelta(**index, run);
        }), "ms");
  }
  {
    storage::MutableStore fresh(store);
    const std::string fp = so::ConfigFingerprint(config);
    std::vector<double> insert_us;
    for (int round = 0; round < 8 && insert_us.size() < 1000; ++round) {
      for (const WriteOp& op : w.writes) {
        if (!op.insert || insert_us.size() >= 1000) continue;
        const int64_t t0 = NowNs();
        {
          ScopedSpan span(tracer, "storage::MutableStore::InsertRegion");
          err.Check(fresh.InsertRegion(op.doc, fp, op.start, op.end, op.id)
                        .status(),
                    "InsertRegion");
        }
        insert_us.push_back((NowNs() - t0) / 1e3);
      }
    }
    put("delta.insert_us", Median(insert_us), "us");
  }
  {
    storage::WalOptions options;
    options.dir = ctx.scratch_dir + "/wal";
    options.sync = storage::WalSyncPolicy::kAlways;
    auto wal = storage::Wal::Open(options, storage::WalRecoveryResult{});
    err.Check(wal.status(), "Wal::Open");
    if (wal.ok()) {
      std::vector<double> append_us;
      for (uint64_t i = 0; i < 200; ++i) {
        const WriteOp& op = w.writes[i % w.writes.size()];
        storage::WalRecord record;
        record.op = op.insert ? storage::WalRecord::Op::kInsert
                              : storage::WalRecord::Op::kDelete;
        record.seq = i + 1;
        record.doc = op.doc;
        record.id = op.id;
        record.start = op.start;
        record.end = op.end;
        record.fingerprint = so::ConfigFingerprint(config);
        const int64_t t0 = NowNs();
        {
          ScopedSpan span(tracer, "storage::Wal::Append");
          err.Check((*wal)->Append(record), "Wal::Append");
        }
        append_us.push_back((NowNs() - t0) / 1e3);
      }
      put("wal.append_us", Median(append_us), "us");
    }
  }
  {
    const auto pending =
        PendingStore(store, w.writes, ctx.pending_delta, &err);
    const auto view = pending->View();
    std::vector<double> cold_us;
    for (size_t i = 0; i < chains.size() && i < kColdSample; ++i) {
      xquery::Engine engine(view.get());
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer, "xquery::Engine::EvaluateChain.cold");
        err.Check(engine.EvaluateChain(chains[i].chain).status(),
                  "EvaluateChain");
      }
      cold_us.push_back((NowNs() - t0) / 1e3);
    }
    put("engine.cold_chain_us", Median(cold_us), "us");
    ThreadPool merge_pool(kServerWorkers);
    const std::string target = ctx.scratch_dir + "/compacted.sosnap";
    put("compaction.ms",
        1e3 * MedianSeconds(tracer, "storage::MutableStore::CompactToSnapshot",
                            3, [&] {
                              uint64_t seq = 0;
                              err.Check(pending->CompactToSnapshot(
                                            target, &merge_pool, &seq),
                                        "CompactToSnapshot");
                            }),
        "ms");
  }
  fs::remove_all(ctx.scratch_dir, ec);
  if (!err.message.empty()) {
    *error = err.message;
    return false;
  }
  return true;
}

}  // namespace perfbench
