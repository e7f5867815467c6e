// Wire-level coverage of the protocol-2 write path: hello version
// exchange, insert/delete frames landing in the server's delta layer
// and changing query results, compaction publishing a new generation
// whose results are byte-identical, delta counters in the stats frame,
// manual hot-swap dropping pending deltas, unknown-frame handling
// (the forward-compatibility story for old servers), hostile frame
// lengths, WAL boot recovery across a restart, read-only degradation
// under injected WAL failures, and threshold-triggered auto-compaction.
// Runs under ASan/TSan in the sanitizer CI jobs.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "standoff/region_index.h"
#include "storage/sharded_store.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "tests/fault_io.h"
#include "tests/harness.h"
#include "tests/oracle.h"
#include "xquery/engine.h"

using namespace standoff;
using storage::Pre;

namespace {

std::string TempPath(const char* name) {
  return std::string("/tmp/standoff_test_") + name + "_" +
         std::to_string(::getpid()) + ".sosnap";
}

std::string TempWalDir(const char* name) {
  return std::string("/tmp/standoff_test_") + name + "_" +
         std::to_string(::getpid()) + ".waldir";
}

bool Exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

void RemoveTree(const std::string& dir) {
  storage::FileIo* io = storage::PosixFileIo();
  auto names = io->ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) (void)io->Remove(dir + "/" + name);
  }
  ::rmdir(dir.c_str());
}

// The corpus, one element per line below; pre = position + 2 (pre 0
// is the document node, pre 1 is <play>, attributes consume no pre
// numbers). Bare words are the write targets.
constexpr Pre kScene = 2;
constexpr Pre kSpeech1 = 3;
constexpr Pre kWord1 = 4;      // base region [110,130]
constexpr Pre kBareWord1 = 5;  // no region
constexpr Pre kSpeech2 = 6;
constexpr Pre kWord2 = 7;      // base region [510,530]
constexpr Pre kBareWord2 = 8;  // no region

std::string CorpusXml() {
  return "<play>"
         "<scene start=\"0\" end=\"999\"/>"
         "<speech start=\"100\" end=\"400\"/>"
         "<word start=\"110\" end=\"130\"/>"
         "<word/>"
         "<speech start=\"500\" end=\"800\"/>"
         "<word start=\"510\" end=\"530\"/>"
         "<word/>"
         "</play>";
}

constexpr char kChainQuery[] =
    "chain doc=0 ctx=scene steps=select-narrow:speech,select-narrow:word";

struct WriteFixture {
  explicit WriteFixture(const char* name,
                        const server::ServerConfig& config =
                            server::ServerConfig{}) {
    path = TempPath(name);
    storage::ShardedStore store(1);
    CHECK_OK(store.AddDocumentText("d0", CorpusXml()));
    CHECK_OK(storage::SaveSnapshot(store, path));
    auto started = server::Server::Start(path, config);
    CHECK_OK(started);
    srv = started.MoveValueUnsafe();
  }
  ~WriteFixture() {
    srv->Stop();
    std::remove(path.c_str());
  }

  std::unique_ptr<server::Client> Connect() {
    auto client = server::Client::Connect(srv->port());
    CHECK_OK(client);
    return client.MoveValueUnsafe();
  }

  std::string path;
  std::unique_ptr<server::Server> srv;
};

/// The server's live (base ⊎ delta) region rows of doc 0.
std::vector<so::RegionEntry> LiveRows(server::Server* srv) {
  auto view = srv->mutable_store()->View();
  so::RegionIndexCache cache;
  auto index = cache.Get(*view, 0, so::StandoffConfig{});
  CHECK_OK(index);
  return index.ok() ? test::Rows(**index) : std::vector<so::RegionEntry>{};
}

/// Stops `fx`'s server and boots a fresh one on the same boot snapshot
/// and configuration (WAL recovery included).
void Restart(WriteFixture* fx, const server::ServerConfig& config) {
  fx->srv->Stop();
  fx->srv.reset();
  auto restarted = server::Server::Start(fx->path, config);
  CHECK_OK(restarted);
  if (restarted.ok()) fx->srv = restarted.MoveValueUnsafe();
}

/// Decodes a query payload into (context_ids, matches).
void DecodePayload(const std::string& payload,
                   std::vector<Pre>* context_ids,
                   std::vector<so::IterMatch>* matches) {
  size_t off = 0;
  auto context_count = server::TakeU32(payload, &off);
  CHECK_OK(context_count);
  for (uint32_t i = 0; context_count.ok() && i < *context_count; ++i) {
    auto id = server::TakeU32(payload, &off);
    CHECK_OK(id);
    if (id.ok()) context_ids->push_back(*id);
  }
  auto match_count = server::TakeU32(payload, &off);
  CHECK_OK(match_count);
  for (uint32_t i = 0; match_count.ok() && i < *match_count; ++i) {
    auto iter = server::TakeU32(payload, &off);
    auto pre = server::TakeU32(payload, &off);
    CHECK_OK(iter);
    CHECK_OK(pre);
    if (iter.ok() && pre.ok()) {
      matches->push_back({*iter, static_cast<Pre>(*pre)});
    }
  }
  CHECK_EQ(off, payload.size());
}

/// The oracle: the same chain evaluated locally over `xml`.
xquery::ChainResult Oracle(const std::string& xml) {
  storage::ShardedStore store(1);
  CHECK_OK(store.AddDocumentText("d0", xml));
  xquery::Engine engine(&store);
  xquery::ChainQuery query;
  query.doc = 0;
  query.context_name = "scene";
  query.steps.push_back({xquery::Axis::kSelectNarrow, false, "speech"});
  query.steps.push_back({xquery::Axis::kSelectNarrow, false, "word"});
  auto result = engine.EvaluateChain(query);
  CHECK_OK(result);
  return result.ok() ? std::move(*result) : xquery::ChainResult{};
}

void ExpectQueryMatches(server::Client* client, const std::string& oracle_xml) {
  auto reply = client->Query(kChainQuery);
  CHECK_OK(reply);
  if (!reply.ok()) return;
  CHECK(!reply->busy);
  std::vector<Pre> context_ids;
  std::vector<so::IterMatch> matches;
  DecodePayload(reply->payload, &context_ids, &matches);
  const xquery::ChainResult want = Oracle(oracle_xml);
  CHECK(context_ids == want.context_ids);
  if (!(matches == want.matches)) {
    std::fprintf(stderr, "  wire: %zu matches vs oracle %zu\n",
                 matches.size(), want.matches.size());
    CHECK(false);
  }
}

}  // namespace

static void TestHelloVersionExchange() {
  WriteFixture fx("write_hello");
  auto client = fx.Connect();
  auto version = client->Hello();
  CHECK_OK(version);
  CHECK_EQ(*version, server::kProtocolVersion);
  CHECK_OK(client->Ping());  // connection stays usable after hello
}

static void TestWriteQueryCompactQuery() {
  WriteFixture fx("write_wqcq");
  auto client = fx.Connect();

  // Baseline: the boot corpus.
  ExpectQueryMatches(client.get(), CorpusXml());

  // Write 1: give bare word 1 a region inside speech 1.
  auto seq1 = client->InsertRegion(0, kBareWord1, 140, 160);
  CHECK_OK(seq1);
  CHECK_EQ(*seq1, uint64_t{1});
  // Write 2: delete word 2's base region.
  auto seq2 = client->DeleteRegions(0, kWord2);
  CHECK_OK(seq2);
  CHECK_EQ(*seq2, uint64_t{2});
  // Write 3: delete-then-reinsert word 1, moved.
  CHECK_OK(client->DeleteRegions(0, kWord1));
  auto seq4 = client->InsertRegion(0, kWord1, 115, 135);
  CHECK_OK(seq4);
  CHECK_EQ(*seq4, uint64_t{4});

  const char* final_xml =
      "<play>"
      "<scene start=\"0\" end=\"999\"/>"
      "<speech start=\"100\" end=\"400\"/>"
      "<word start=\"115\" end=\"135\"/>"
      "<word start=\"140\" end=\"160\"/>"
      "<speech start=\"500\" end=\"800\"/>"
      "<word/>"
      "<word/>"
      "</play>";
  ExpectQueryMatches(client.get(), final_xml);

  auto stats = client->Stats();
  CHECK_OK(stats);
  CHECK_EQ(stats->delta_inserts, uint64_t{2});
  CHECK_EQ(stats->delta_deletes, uint64_t{2});
  CHECK_EQ(stats->delta_live_rows, uint64_t{2});
  CHECK_EQ(stats->delta_live_tombstones, uint64_t{2});
  CHECK_EQ(stats->compactions, uint64_t{0});

  // Compact into a new generation; results must be byte-identical.
  const std::string gen2 = TempPath("write_wqcq_gen2");
  auto compacted = client->Compact(gen2);
  CHECK_OK(compacted);
  CHECK_EQ(compacted->generation, uint64_t{2});
  CHECK_EQ(compacted->compacted_seq, uint64_t{4});
  CHECK_EQ(fx.srv->generation(), uint64_t{2});

  ExpectQueryMatches(client.get(), final_xml);
  auto after = client->Stats();
  CHECK_OK(after);
  CHECK_EQ(after->generation, uint64_t{2});
  CHECK_EQ(after->compactions, uint64_t{1});
  CHECK_EQ(after->delta_live_rows, uint64_t{0});
  CHECK_EQ(after->delta_live_tombstones, uint64_t{0});

  // Writes keep working against the compacted base — delete the row
  // the compaction just folded in.
  CHECK_OK(client->DeleteRegions(0, kBareWord1));
  const char* post_compact_xml =
      "<play>"
      "<scene start=\"0\" end=\"999\"/>"
      "<speech start=\"100\" end=\"400\"/>"
      "<word start=\"115\" end=\"135\"/>"
      "<word/>"
      "<speech start=\"500\" end=\"800\"/>"
      "<word/>"
      "<word/>"
      "</play>";
  ExpectQueryMatches(client.get(), post_compact_xml);
  std::remove(gen2.c_str());
}

static void TestServerChosenCompactionPath() {
  WriteFixture fx("write_autopath");
  auto client = fx.Connect();
  CHECK_OK(client->InsertRegion(0, kBareWord1, 140, 160));
  auto compacted = client->Compact();  // empty path: server picks one
  CHECK_OK(compacted);
  CHECK_EQ(compacted->generation, uint64_t{2});
  auto stats = client->Stats();
  CHECK_OK(stats);
  CHECK_EQ(stats->compactions, uint64_t{1});
  std::remove((fx.path + ".gen2").c_str());
}

// A server-named compaction deletes the server-named generation it
// supersedes; the boot snapshot and a client-named file always stay.
static void TestCompactionDeletesSupersededGenerations() {
  WriteFixture fx("write_gengc");
  const std::string client_path = TempPath("write_gengc_client");
  auto client = fx.Connect();
  CHECK_OK(client->InsertRegion(0, kBareWord1, 140, 160));
  CHECK_OK(client->Compact());
  CHECK(Exists(fx.path + ".gen2"));
  CHECK_OK(client->InsertRegion(0, kBareWord2, 540, 560));
  CHECK_OK(client->Compact());
  CHECK(!Exists(fx.path + ".gen2"));
  CHECK(Exists(fx.path + ".gen3"));
  CHECK(Exists(fx.path));

  CHECK_OK(client->Compact(client_path));  // generation 4, client-named
  CHECK_OK(client->Compact());             // generation 5
  CHECK(!Exists(fx.path + ".gen3"));
  CHECK(Exists(fx.path + ".gen5"));
  CHECK(Exists(client_path));
  CHECK(Exists(fx.path));
  const char* both_xml =
      "<play>"
      "<scene start=\"0\" end=\"999\"/>"
      "<speech start=\"100\" end=\"400\"/>"
      "<word start=\"110\" end=\"130\"/>"
      "<word start=\"140\" end=\"160\"/>"
      "<speech start=\"500\" end=\"800\"/>"
      "<word start=\"510\" end=\"530\"/>"
      "<word start=\"540\" end=\"560\"/>"
      "</play>";
  ExpectQueryMatches(client.get(), both_xml);
  std::remove(client_path.c_str());
  std::remove((fx.path + ".gen5").c_str());
}

// With a WAL: after two compactions only the boot snapshot and the
// newest generation are on disk, and restarts recover the live state
// row for row. Generation numbers restart with the process; a
// post-restart compaction must still leave exactly one generation.
static void TestGenerationCleanupAcrossRestarts() {
  const std::string wal_dir = TempWalDir("write_gengc_wal");
  RemoveTree(wal_dir);
  server::ServerConfig config;
  config.wal_dir = wal_dir;
  WriteFixture fx("write_gengc_wal", config);
  {
    auto client = fx.Connect();
    CHECK_OK(client->InsertRegion(0, kBareWord1, 140, 160));
    CHECK_OK(client->Compact());
    CHECK_OK(client->InsertRegion(0, kBareWord2, 540, 560));
    CHECK_OK(client->Compact());
    CHECK_OK(client->DeleteRegions(0, kWord2));  // lives only in the WAL
  }
  CHECK(Exists(fx.path));
  CHECK(!Exists(fx.path + ".gen2"));
  CHECK(Exists(fx.path + ".gen3"));
  const std::vector<so::RegionEntry> live = LiveRows(fx.srv.get());

  Restart(&fx, config);  // recovers gen3 + the delete
  if (!fx.srv) return;
  CHECK(LiveRows(fx.srv.get()) == live);
  {
    auto client = fx.Connect();
    auto stats = client->Stats();
    CHECK_OK(stats);
    if (stats.ok()) CHECK_EQ(stats->wal_replayed_ops, uint64_t{1});
    const char* recovered_xml =
        "<play>"
        "<scene start=\"0\" end=\"999\"/>"
        "<speech start=\"100\" end=\"400\"/>"
        "<word start=\"110\" end=\"130\"/>"
        "<word start=\"140\" end=\"160\"/>"
        "<speech start=\"500\" end=\"800\"/>"
        "<word/>"
        "<word start=\"540\" end=\"560\"/>"
        "</play>";
    ExpectQueryMatches(client.get(), recovered_xml);
    auto compacted = client->Compact();
    CHECK_OK(compacted);
    if (compacted.ok()) CHECK_EQ(compacted->generation, uint64_t{2});
  }
  CHECK(Exists(fx.path + ".gen2"));
  CHECK(!Exists(fx.path + ".gen3"));

  Restart(&fx, config);  // recovers gen2
  if (!fx.srv) return;
  CHECK(LiveRows(fx.srv.get()) == live);
  {
    auto client = fx.Connect();
    CHECK_OK(client->Compact());  // must not rewrite gen2, the WAL's base
  }
  CHECK(!Exists(fx.path + ".gen2"));
  CHECK(Exists(fx.path + ".gen3"));
  CHECK(Exists(fx.path));

  Restart(&fx, config);
  if (!fx.srv) return;
  CHECK(LiveRows(fx.srv.get()) == live);
  std::remove((fx.path + ".gen3").c_str());
  RemoveTree(wal_dir);
}

// When the WAL rotation after a compaction fails, the log's newest
// segment still names the previous generation: that file must stay
// untouched — neither deleted nor rewritten, although a restart has
// reset the generation numbers — and a restart recovers from it.
static void TestFailedRotationKeepsOldGeneration() {
  const std::string wal_dir = TempWalDir("write_gengc_fail");
  RemoveTree(wal_dir);
  faultio::FaultFileIo fault;  // outlives the fixture below
  server::ServerConfig config;
  config.wal_dir = wal_dir;
  config.wal_io = &fault;
  WriteFixture fx("write_gengc_fail", config);
  {
    auto client = fx.Connect();
    CHECK_OK(client->InsertRegion(0, kBareWord1, 140, 160));
    CHECK_OK(client->Compact());
    CHECK_OK(client->InsertRegion(0, kBareWord2, 540, 560));
  }
  Restart(&fx, config);  // recovers gen2 + the second insert
  if (!fx.srv) return;
  const std::vector<so::RegionEntry> live = LiveRows(fx.srv.get());
  {
    auto client = fx.Connect();
    fault.set_fail_syncs_after(fault.syncs());  // the rotation fails
    CHECK_OK(client->Compact());
  }
  CHECK(Exists(fx.path + ".gen2"));
  CHECK(Exists(fx.path + ".gen3"));
  CHECK(LiveRows(fx.srv.get()) == live);

  fault.set_fail_syncs_after(-1);
  Restart(&fx, config);  // the log still names gen2
  if (!fx.srv) return;
  CHECK(LiveRows(fx.srv.get()) == live);
  std::remove((fx.path + ".gen2").c_str());
  std::remove((fx.path + ".gen3").c_str());
  RemoveTree(wal_dir);
}

// Only "<boot>.gen<digits>" is a server-named generation: a recovered
// client-named base that merely starts with "<boot>.gen" survives the
// next server-named compaction.
static void TestClientNamedGenLikeBaseSurvives() {
  const std::string wal_dir = TempWalDir("write_gengc_client_base");
  RemoveTree(wal_dir);
  server::ServerConfig config;
  config.wal_dir = wal_dir;
  WriteFixture fx("write_gengc_client_base", config);
  const std::string client_path = fx.path + ".gen-x";
  {
    auto client = fx.Connect();
    CHECK_OK(client->InsertRegion(0, kBareWord1, 140, 160));
    CHECK_OK(client->Compact(client_path));
    CHECK_OK(client->InsertRegion(0, kBareWord2, 540, 560));
  }
  const std::vector<so::RegionEntry> live = LiveRows(fx.srv.get());
  Restart(&fx, config);  // recovers the client's base + the insert
  if (!fx.srv) return;
  CHECK(LiveRows(fx.srv.get()) == live);
  {
    auto client = fx.Connect();
    CHECK_OK(client->Compact());
  }
  CHECK(Exists(client_path));
  CHECK(Exists(fx.path + ".gen2"));
  Restart(&fx, config);
  if (!fx.srv) return;
  CHECK(LiveRows(fx.srv.get()) == live);
  std::remove(client_path.c_str());
  std::remove((fx.path + ".gen2").c_str());
  RemoveTree(wal_dir);
}

// A restart that spells the boot snapshot's path differently still
// recognises the recovered generation: the next compaction neither
// rewrites it (the WAL names it) nor leaves it behind once the WAL
// names the new one.
static void TestRespelledBootPathKeepsGenerationRules() {
  const std::string wal_dir = TempWalDir("write_gengc_respelled");
  RemoveTree(wal_dir);
  server::ServerConfig config;
  config.wal_dir = wal_dir;
  WriteFixture fx("write_gengc_respelled", config);
  const std::string spelled = fx.path;
  {
    auto client = fx.Connect();
    CHECK_OK(client->InsertRegion(0, kBareWord1, 140, 160));
    CHECK_OK(client->Compact());
    CHECK_OK(client->InsertRegion(0, kBareWord2, 540, 560));
  }
  CHECK(Exists(spelled + ".gen2"));
  const std::vector<so::RegionEntry> live = LiveRows(fx.srv.get());
  const size_t slash = fx.path.rfind('/');
  fx.path = fx.path.substr(0, slash) + "/." + fx.path.substr(slash);
  Restart(&fx, config);  // the WAL names `spelled`.gen2
  if (!fx.srv) return;
  CHECK(LiveRows(fx.srv.get()) == live);
  {
    auto client = fx.Connect();
    CHECK_OK(client->Compact());
  }
  CHECK(!Exists(spelled + ".gen2"));
  CHECK(Exists(spelled + ".gen3"));
  Restart(&fx, config);
  if (!fx.srv) return;
  CHECK(LiveRows(fx.srv.get()) == live);
  std::remove((spelled + ".gen3").c_str());
  RemoveTree(wal_dir);
}

static void TestSwapDropsPendingDeltas() {
  WriteFixture fx("write_swapdrop");
  auto client = fx.Connect();
  CHECK_OK(client->InsertRegion(0, kBareWord1, 140, 160));
  auto stats = client->Stats();
  CHECK_OK(stats);
  CHECK_EQ(stats->delta_live_rows, uint64_t{1});

  // Swapping to an unrelated snapshot (here: the same file, which is
  // how operators roll back) must drop the pending deltas — their ids
  // reference the replaced base.
  auto generation = client->Swap(fx.path);
  CHECK_OK(generation);
  CHECK_EQ(*generation, uint64_t{2});
  auto after = client->Stats();
  CHECK_OK(after);
  CHECK_EQ(after->delta_live_rows, uint64_t{0});
  ExpectQueryMatches(client.get(), CorpusXml());
}

static void TestWriteValidationOverWire() {
  WriteFixture fx("write_validation");
  auto client = fx.Connect();

  auto bad_doc = client->InsertRegion(9, kBareWord1, 0, 10);
  CHECK(!bad_doc.ok());
  auto bad_span = client->InsertRegion(0, kBareWord1, 10, 5);
  CHECK(!bad_span.ok());
  auto bad_id = client->InsertRegion(0, 0xFFFFFF, 0, 10);
  CHECK(!bad_id.ok());
  auto bad_fp = client->InsertRegion(0, kBareWord1, 0, 10, "nope");
  CHECK(!bad_fp.ok());
  CHECK(bad_fp.status().code() == StatusCode::kInvalidArgument);
  auto bad_delete = client->DeleteRegions(9, kWord1);
  CHECK(!bad_delete.ok());

  // Truncated write frame: body shorter than the fixed header.
  std::string body;
  server::AppendU32(&body, 0);
  auto frame_status =
      server::WriteFrame(client->fd(), server::MsgType::kInsertRegionReq, body);
  CHECK_OK(frame_status);
  auto reply = server::ReadFrame(client->fd());
  CHECK_OK(reply);
  if (reply.ok()) CHECK(reply->type == server::MsgType::kError);

  // Rejected writes left no trace; the connection stays usable.
  auto stats = client->Stats();
  CHECK_OK(stats);
  CHECK_EQ(stats->delta_inserts, uint64_t{0});
  CHECK_EQ(stats->delta_deletes, uint64_t{0});
  ExpectQueryMatches(client.get(), CorpusXml());
}

// An unknown frame type gets kError and the connection survives —
// exactly what a protocol-2 client sees from a pre-write server, which
// is why Hello()'s error is a usable capability probe.
static void TestUnknownFrameTypeIsClientSafe() {
  WriteFixture fx("write_unknown");
  auto client = fx.Connect();
  CHECK_OK(server::WriteFrame(client->fd(),
                              static_cast<server::MsgType>(0x7F), "junk"));
  auto reply = server::ReadFrame(client->fd());
  CHECK_OK(reply);
  if (reply.ok()) CHECK(reply->type == server::MsgType::kError);
  CHECK_OK(client->Ping());
  ExpectQueryMatches(client.get(), CorpusXml());
}

// A length prefix past kMaxFrameBytes must be refused BEFORE any
// allocation: the server answers kError with the cap diagnostic and
// drops the connection; the process itself shrugs it off.
static void TestHostileFrameLengthIsRejected() {
  WriteFixture fx("write_hostile");
  auto client = fx.Connect();
  const uint8_t huge[4] = {0, 0, 0, 0x10};  // announces 256 MiB
  CHECK_EQ(::send(client->fd(), huge, sizeof huge, 0),
           static_cast<ssize_t>(sizeof huge));
  auto reply = server::ReadFrame(client->fd());
  CHECK_OK(reply);
  if (reply.ok()) CHECK(reply->type == server::MsgType::kError);
  auto eof = server::ReadFrame(client->fd());
  CHECK(!eof.ok());  // the hostile connection is closed

  // Zero-length frames die the same way.
  auto client2 = fx.Connect();
  const uint8_t zero[4] = {0, 0, 0, 0};
  CHECK_EQ(::send(client2->fd(), zero, sizeof zero, 0),
           static_cast<ssize_t>(sizeof zero));
  auto reply2 = server::ReadFrame(client2->fd());
  CHECK_OK(reply2);
  if (reply2.ok()) CHECK(reply2->type == server::MsgType::kError);

  // The server survives hostile peers: fresh connections work.
  auto client3 = fx.Connect();
  CHECK_OK(client3->Ping());
  ExpectQueryMatches(client3.get(), CorpusXml());
}

// Boot recovery (DESIGN.md §16): acknowledged writes survive a restart
// that never checkpointed — the delta state lives only in the WAL.
static void TestWalRestartRecoveryOverWire() {
  const std::string wal_dir = TempWalDir("write_walrestart");
  RemoveTree(wal_dir);
  server::ServerConfig config;
  config.wal_dir = wal_dir;
  WriteFixture fx("write_walrestart", config);
  {
    auto client = fx.Connect();
    CHECK_OK(client->InsertRegion(0, kBareWord1, 140, 160));
    CHECK_OK(client->DeleteRegions(0, kWord2));
    auto stats = client->Stats();
    CHECK_OK(stats);
    if (stats.ok()) {
      CHECK_EQ(stats->wal_appends, uint64_t{2});
      CHECK(stats->wal_fsyncs >= uint64_t{2});  // fsync=always
      CHECK_EQ(stats->wal_replayed_ops, uint64_t{0});
    }
  }
  // Tear the server down WITHOUT compacting and boot a fresh one on
  // the same snapshot + --wal-dir.
  fx.srv->Stop();
  fx.srv.reset();
  auto restarted = server::Server::Start(fx.path, config);
  CHECK_OK(restarted);
  if (!restarted.ok()) return;
  fx.srv = restarted.MoveValueUnsafe();

  auto client = fx.Connect();
  auto stats = client->Stats();
  CHECK_OK(stats);
  if (stats.ok()) {
    CHECK_EQ(stats->wal_replayed_ops, uint64_t{2});
    CHECK_EQ(stats->wal_truncated_bytes, uint64_t{0});
    CHECK_EQ(stats->delta_live_rows, uint64_t{1});
    CHECK_EQ(stats->delta_live_tombstones, uint64_t{1});
  }
  const char* recovered_xml =
      "<play>"
      "<scene start=\"0\" end=\"999\"/>"
      "<speech start=\"100\" end=\"400\"/>"
      "<word start=\"110\" end=\"130\"/>"
      "<word start=\"140\" end=\"160\"/>"
      "<speech start=\"500\" end=\"800\"/>"
      "<word/>"
      "<word/>"
      "</play>";
  ExpectQueryMatches(client.get(), recovered_xml);
  // New writes continue above the recovered sequence numbers.
  auto seq = client->InsertRegion(0, kBareWord2, 540, 560);
  CHECK_OK(seq);
  if (seq.ok()) CHECK_EQ(*seq, uint64_t{3});
  RemoveTree(wal_dir);
}

// An injected fsync failure mid-flight: the write is refused with the
// transient kUnavailable (never acked, never applied), the store
// latches read-only, and queries keep serving the pre-failure state.
static void TestWalFailureDegradesToReadOnly() {
  const std::string wal_dir = TempWalDir("write_walfail");
  RemoveTree(wal_dir);
  faultio::FaultFileIo fault;  // outlives the fixture below
  server::ServerConfig config;
  config.wal_dir = wal_dir;
  config.wal_io = &fault;
  WriteFixture fx("write_walfail", config);
  auto client = fx.Connect();
  CHECK_OK(client->InsertRegion(0, kBareWord1, 140, 160));

  fault.set_fail_syncs_after(fault.syncs());  // the next fsync fails
  // The eating-it write reports the root cause; the ack never happens.
  auto failed = client->InsertRegion(0, kBareWord2, 540, 560);
  CHECK(!failed.ok());
  // Sticky: every later write fails fast with the transient code.
  auto later = client->DeleteRegions(0, kWord2);
  CHECK(!later.ok());
  CHECK(later.status().code() == StatusCode::kUnavailable);

  // Reads are untouched: the acknowledged prefix keeps serving.
  const char* acked_xml =
      "<play>"
      "<scene start=\"0\" end=\"999\"/>"
      "<speech start=\"100\" end=\"400\"/>"
      "<word start=\"110\" end=\"130\"/>"
      "<word start=\"140\" end=\"160\"/>"
      "<speech start=\"500\" end=\"800\"/>"
      "<word start=\"510\" end=\"530\"/>"
      "<word/>"
      "</play>";
  ExpectQueryMatches(client.get(), acked_xml);
  auto stats = client->Stats();
  CHECK_OK(stats);
  if (stats.ok()) {
    CHECK_EQ(stats->delta_inserts, uint64_t{1});  // the failed op left none
    CHECK_EQ(stats->queries_ok > 0, true);
  }
  RemoveTree(wal_dir);
}

// Threshold-triggered auto-compaction: crossing the live-rows bound
// schedules one background compaction that publishes a new generation
// and drains the delta, all without a client Compact frame.
static void TestAutoCompactionOverWire() {
  server::ServerConfig config;
  config.compact_live_rows_threshold = 2;
  WriteFixture fx("write_autocompact", config);
  auto client = fx.Connect();
  CHECK_OK(client->InsertRegion(0, kBareWord1, 140, 160));
  CHECK_OK(client->InsertRegion(0, kBareWord2, 540, 560));  // crosses 2

  server::ServerStats stats;
  for (int i = 0; i < 1000; ++i) {
    auto got = client->Stats();
    CHECK_OK(got);
    if (!got.ok()) return;
    stats = *got;
    if (stats.auto_compactions >= 1) break;
    ::usleep(10 * 1000);
  }
  CHECK_EQ(stats.auto_compactions, uint64_t{1});
  CHECK_EQ(stats.compactions, uint64_t{1});
  CHECK(stats.generation >= 2);
  CHECK_EQ(stats.delta_live_rows, uint64_t{0});

  // The compacted generation serves the same merged state.
  const char* compacted_xml =
      "<play>"
      "<scene start=\"0\" end=\"999\"/>"
      "<speech start=\"100\" end=\"400\"/>"
      "<word start=\"110\" end=\"130\"/>"
      "<word start=\"140\" end=\"160\"/>"
      "<speech start=\"500\" end=\"800\"/>"
      "<word start=\"510\" end=\"530\"/>"
      "<word start=\"540\" end=\"560\"/>"
      "</play>";
  ExpectQueryMatches(client.get(), compacted_xml);
  std::remove((fx.path + ".gen2").c_str());
}

/// The chain payload the server must send for kChainQuery over `xml`,
/// built from the local oracle in the wire layout.
std::string OraclePayload(const std::string& xml) {
  const xquery::ChainResult want = Oracle(xml);
  std::string payload;
  server::AppendU32(&payload, static_cast<uint32_t>(want.context_ids.size()));
  for (Pre id : want.context_ids) server::AppendU32(&payload, id);
  server::AppendU32(&payload, static_cast<uint32_t>(want.matches.size()));
  for (const so::IterMatch& match : want.matches) {
    server::AppendU32(&payload, match.iter);
    server::AppendU32(&payload, match.pre);
  }
  return payload;
}

/// The integer a one-item FLWOR payload carries; -1 for any other shape.
int64_t FlworInt(const std::string& payload) {
  size_t off = 0;
  auto count = server::TakeU32(payload, &off);
  if (!count.ok() || *count != 1 || off >= payload.size() ||
      payload[off++] != static_cast<char>(algebra::Item::Kind::kInt)) {
    return -1;
  }
  auto value = server::TakeU64(payload, &off);
  return value.ok() ? static_cast<int64_t>(*value) : -1;
}

// Queries run on their connection threads while compactions use the
// server's pool. Four connections loop a chain and a FLWOR query while a
// fifth toggles a region and issues server-named compactions, all on a
// one-worker pool. Every reply is OK and shows one of the two states
// the writes alternate between; once the writer stops, every
// connection's answers equal a cold evaluation of the final state.
static void TestQueriesBesideCompactions() {
  server::ServerConfig config;
  config.pool_workers = 1;
  config.admission_capacity = 4;
  WriteFixture fx("write_concurrent", config);
  const std::string without_word = CorpusXml();
  const std::string with_word =
      "<play>"
      "<scene start=\"0\" end=\"999\"/>"
      "<speech start=\"100\" end=\"400\"/>"
      "<word start=\"110\" end=\"130\"/>"
      "<word start=\"140\" end=\"160\"/>"
      "<speech start=\"500\" end=\"800\"/>"
      "<word start=\"510\" end=\"530\"/>"
      "<word/>"
      "</play>";
  const std::string flwor = "count(//speech/select-narrow::word)";
  const auto cold_count = [&flwor](const std::string& xml) -> int64_t {
    storage::ShardedStore store(1);
    CHECK_OK(store.AddDocumentText("d0", xml));
    xquery::Engine engine(&store);
    auto result = engine.Evaluate(flwor);
    CHECK_OK(result);
    return result.ok() && result->items.size() == 1
               ? result->items[0].int_value()
               : -2;
  };
  const std::string chain_without = OraclePayload(without_word);
  const std::string chain_with = OraclePayload(with_word);
  const int64_t count_without = cold_count(without_word);
  const int64_t count_with = cold_count(with_word);
  CHECK(chain_without != chain_with);
  CHECK(count_without != count_with);

  std::atomic<bool> writing{true};
  std::atomic<int> bad_replies{0};
  std::atomic<int> bad_final{0};
  std::atomic<int> replies{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      auto client = server::Client::Connect(fx.srv->port());
      if (!client.ok()) {
        bad_replies.fetch_add(1);
        return;
      }
      const auto ask = [&](const std::string& text) -> std::string {
        auto reply = (*client)->Query(text);
        if (!reply.ok() || reply->busy) return "<failed>";
        return reply->payload;
      };
      for (int i = 0; i < 10 || writing.load(); ++i) {
        const std::string chain = ask(kChainQuery);
        if (chain != chain_without && chain != chain_with) {
          bad_replies.fetch_add(1);
        }
        const int64_t count = FlworInt(ask("flwor " + flwor));
        if (count != count_without && count != count_with) {
          bad_replies.fetch_add(1);
        }
        replies.fetch_add(2);
      }
      // The writer has stopped: the final state holds the region.
      if (ask(kChainQuery) != chain_with) bad_final.fetch_add(1);
      if (FlworInt(ask("flwor " + flwor)) != count_with) {
        bad_final.fetch_add(1);
      }
    });
  }

  auto writer = fx.Connect();
  int write_errors = 0;
  int compactions = 0;
  for (int round = 0; round < 12; ++round) {
    write_errors += !writer->InsertRegion(0, kBareWord1, 140, 160).ok();
    if (round % 2 == 0) compactions += writer->Compact().ok();
    write_errors += !writer->DeleteRegions(0, kBareWord1).ok();
    if (round % 2 == 1) compactions += writer->Compact().ok();
  }
  write_errors += !writer->InsertRegion(0, kBareWord1, 140, 160).ok();
  writing.store(false);
  for (std::thread& reader : readers) reader.join();

  CHECK_EQ(write_errors, 0);
  CHECK_EQ(compactions, 12);
  CHECK_EQ(bad_replies.load(), 0);
  CHECK_EQ(bad_final.load(), 0);
  CHECK(replies.load() >= 4 * 2 * 10);
  auto stats = writer->Stats();
  CHECK_OK(stats);
  if (stats.ok()) {
    CHECK_EQ(stats->compactions, uint64_t{12});
    CHECK_EQ(stats->queries_rejected, uint64_t{0});
    CHECK_EQ(stats->queries_error, uint64_t{0});
    // Only the newest server-named generation is left on disk.
    std::remove((fx.path + ".gen" + std::to_string(stats->generation))
                    .c_str());
  }
}

int main() {
  RUN_TEST(TestHelloVersionExchange);
  RUN_TEST(TestWriteQueryCompactQuery);
  RUN_TEST(TestServerChosenCompactionPath);
  RUN_TEST(TestCompactionDeletesSupersededGenerations);
  RUN_TEST(TestGenerationCleanupAcrossRestarts);
  RUN_TEST(TestFailedRotationKeepsOldGeneration);
  RUN_TEST(TestClientNamedGenLikeBaseSurvives);
  RUN_TEST(TestRespelledBootPathKeepsGenerationRules);
  RUN_TEST(TestSwapDropsPendingDeltas);
  RUN_TEST(TestWriteValidationOverWire);
  RUN_TEST(TestUnknownFrameTypeIsClientSafe);
  RUN_TEST(TestHostileFrameLengthIsRejected);
  RUN_TEST(TestWalRestartRecoveryOverWire);
  RUN_TEST(TestWalFailureDegradesToReadOnly);
  RUN_TEST(TestAutoCompactionOverWire);
  RUN_TEST(TestQueriesBesideCompactions);
  TEST_MAIN();
}
