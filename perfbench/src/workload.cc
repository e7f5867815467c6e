#include "workload.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <set>

#include "xmark/generator.h"
#include "xmark/standoff_transform.h"

namespace perfbench {

namespace {

// point_read / mixed_rw: one small read document whose layers fit a
// core's 2 MiB L2, plus the document mixed_rw writes to. scan_read: four
// documents whose region columns together are several times L2.
constexpr double kPointScale = 0.01;
constexpr double kWriteScale = 0.005;
constexpr double kScanScale = 0.1;
constexpr uint32_t kScanDocs = 4;

// mixed_rw writes open loop at this rate for the whole run. Each write
// makes every read connection rebuild its engine; at 20 or 100 writes/s
// the cold reads after each write were so large a share that the median
// read flipped between warm and cold from run to run. The traced runs of
// the read-only workloads end with a probe of kProbeWrites writes at the
// same rate, for the write latency there.
constexpr double kWriteRate = 10;
constexpr size_t kProbeWrites = 60;
constexpr size_t kProbeIds = 20;

// A scan query whose answer exceeds this many rows is skipped when the
// pool is drawn, so one query never dominates a run.
constexpr uint64_t kMaxRows = 250000;

const char* const kContainers[] = {
    "site",    "regions", "africa", "asia",   "australia",
    "europe",  "namerica", "samerica", "people", "open_auctions",
    "closed_auctions", "categories", "catgraph"};
const char* const kMidLevel[] = {
    "item",    "person",  "open_auction", "closed_auction", "category",
    "mailbox", "annotation", "description", "profile", "address",
    "bidder",  "mail",    "interval"};
const char* const kContinents[] = {"africa", "asia", "australia",
                                   "europe", "namerica", "samerica"};

/// The element structure the XMark generator emits: name -> child names.
const std::map<std::string, std::vector<std::string>>& Schema() {
  static const auto* schema = new std::map<std::string,
                                           std::vector<std::string>>{
      {"site", {"regions", "categories", "catgraph", "people",
                "open_auctions", "closed_auctions"}},
      {"regions", {"africa", "asia", "australia", "europe", "namerica",
                   "samerica"}},
      {"africa", {"item"}}, {"asia", {"item"}}, {"australia", {"item"}},
      {"europe", {"item"}}, {"namerica", {"item"}}, {"samerica", {"item"}},
      {"item", {"location", "quantity", "name", "payment", "description",
                "shipping", "incategory", "mailbox"}},
      {"description", {"text"}},
      {"mailbox", {"mail"}},
      {"mail", {"from", "to", "date", "text"}},
      {"categories", {"category"}},
      {"category", {"name", "description"}},
      {"catgraph", {"edge"}},
      {"people", {"person"}},
      {"person", {"name", "emailaddress", "phone", "address", "profile",
                  "watches"}},
      {"address", {"street", "city", "country", "zipcode"}},
      {"profile", {"interest", "education", "business"}},
      {"watches", {"watch"}},
      {"open_auctions", {"open_auction"}},
      {"open_auction", {"initial", "reserve", "bidder", "current", "privacy",
                        "itemref", "seller", "annotation", "quantity", "type",
                        "interval"}},
      {"bidder", {"date", "time", "personref", "increase"}},
      {"annotation", {"author", "description"}},
      {"interval", {"start", "end"}},
      {"closed_auctions", {"closed_auction"}},
      {"closed_auction", {"seller", "buyer", "itemref", "price", "date",
                          "quantity", "type", "annotation"}},
  };
  return *schema;
}

using Rng = std::mt19937_64;

template <typename T, size_t N>
const T& Pick(Rng& rng, const T (&items)[N]) {
  return items[rng() % N];
}

template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& items) {
  return items[rng() % items.size()];
}

bool NonEmptyFlwor(const Flwor& flwor, const std::string& payload) {
  // u32 count, then 9-byte items (kind byte + 8 value bytes).
  if (payload.size() < 4) return false;
  if (flwor.kind == Flwor::Kind::kPersonName) return payload.size() > 4;
  for (size_t off = 4; off + 9 <= payload.size(); off += 9) {
    for (size_t i = 1; i < 9; ++i) {
      if (payload[off + i] != 0) return true;
    }
  }
  return false;
}

uint32_t U32At(const std::string& payload, size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(payload[at + i]))
         << (8 * i);
  }
  return v;
}

/// A chain payload's match count: after the u32 context count and the
/// context pres.
uint32_t RowsOfChainPayload(const std::string& payload) {
  return U32At(payload, 4 + 4 * static_cast<size_t>(U32At(payload, 0)));
}

Answer AnswerOf(const std::string& payload, uint64_t rows) {
  return {HashPayload(payload), rows, payload.size()};
}

bool operator!=(const Answer& a, const Answer& b) {
  return a.hash != b.hash || a.rows != b.rows || a.bytes != b.bytes;
}

/// Collects a family's queries, dropping duplicates, and records whether
/// any of them has a non-empty answer.
class PoolBuilder {
 public:
  explicit PoolBuilder(const Corpus& corpus) : corpus_(corpus) {}

  /// Adds a chain unless it repeats or exceeds kMaxRows. Returns true
  /// when added.
  bool AddChain(const std::string& family, const Chain& chain) {
    const std::string text = ChainText(chain);
    if (!seen_.insert(text).second) return false;
    const std::string payload =
        ExpectedChainPayload(corpus_.trees[chain.doc], chain);
    const uint32_t rows = RowsOfChainPayload(payload);
    if (rows > kMaxRows) return false;
    nonempty_[family] |= rows > 0;
    Add(text, AnswerOf(payload, rows));
    return true;
  }

  bool AddFlwor(const std::string& family, const Flwor& flwor) {
    const std::string text = FlworText(flwor);
    if (!seen_.insert(text).second) return false;
    const std::string payload = ExpectedFlworPayload(corpus_.trees[0], flwor);
    nonempty_[family] |= NonEmptyFlwor(flwor, payload);
    Add(text, AnswerOf(payload, U32At(payload, 0)));
    return true;
  }

  /// False (with *error naming the family) when a family's answers are
  /// all empty: such a family would measure nothing.
  bool CheckFamilies(std::string* error) const {
    for (const auto& [family, nonempty] : nonempty_) {
      if (!nonempty) {
        *error = "query family '" + family + "' has only empty answers";
        return false;
      }
    }
    return true;
  }

  std::vector<ReadQuery> Take() { return std::move(queries_); }

 private:
  void Add(const std::string& text, const Answer& answer) {
    queries_.push_back({text, {answer}});
  }

  const Corpus& corpus_;
  std::set<std::string> seen_;
  std::map<std::string, bool> nonempty_;
  std::vector<ReadQuery> queries_;
};

bool GenerateCorpus(const std::vector<double>& scales, uint64_t seed,
                    Corpus* corpus, std::string* error) {
  for (size_t d = 0; d < scales.size(); ++d) {
    standoff::xmark::XmarkOptions options;
    options.scale = scales[d];
    options.seed = seed * 1000003ull + d;
    std::string nested = standoff::xmark::GenerateXmark(options);
    auto so = standoff::xmark::ToStandoff(nested);
    if (!so.ok()) {
      *error = "standoff transform: " + so.status().ToString();
      return false;
    }
    Tree tree;
    if (!ParseTree(nested, &tree, error)) return false;
    corpus->names.push_back("xmark_" + std::to_string(d));
    corpus->standoff_xml.push_back(std::move(so->xml));
    corpus->blobs.push_back(std::move(so->blob));
    corpus->trees.push_back(std::move(tree));
  }
  return true;
}

/// Reads of the write document: the descendants of every element of a
/// kind the write stream inserts regions on (item, open_auction) or
/// deletes (person). On mixed_rw their answers change with the writes,
/// and the first read after a write merges the pending delta into the
/// document's region index.
std::vector<Chain> WriteDocChains(uint32_t doc) {
  constexpr Op sn = Op::kSelectNarrow;
  return {{doc, "item", {{sn, "*"}}},
          {doc, "open_auction", {{sn, "*"}}},
          {doc, "person", {{sn, "*"}}}};
}

/// The small repeated set: selective chains and Q1/Q2/Q6/Q7-style FLWOR
/// lookups over document 0, and the reads of the write document.
void PointPool(Rng& rng, const Tree& tree, uint32_t write_doc,
               PoolBuilder* pool) {
  constexpr Op sn = Op::kSelectNarrow;
  const Chain chains[] = {
      {0, "open_auction", {{sn, "bidder"}, {sn, "personref"}}},
      {0, "open_auction", {{sn, "annotation"}, {sn, "author"}}},
      {0, "closed_auction", {{sn, "annotation"}, {sn, "description"}}},
      {0, "category", {{sn, "description"}, {sn, "text"}}},
      {0, "person", {{sn, "address"}, {sn, "city"}}},
      {0, "person", {{sn, "profile"}, {sn, "interest"}}},
      {0, Pick(rng, kContinents), {{sn, "item"}, {sn, "mailbox"}}},
      {0, Pick(rng, kContinents), {{sn, "item"}, {sn, "incategory"}}},
  };
  for (const Chain& chain : chains) pool->AddChain("point_chain", chain);
  for (const Chain& chain : WriteDocChains(write_doc)) {
    pool->AddChain("write_doc", chain);
  }

  const size_t persons = tree.by_name[tree.NameId("person")].size();
  for (int added = 0, tries = 0; added < 4 && tries < 100; ++tries) {
    Flwor q1{Flwor::Kind::kPersonName,
             "person" + std::to_string(rng() % persons), "", ""};
    added += pool->AddFlwor("point_person", q1);
  }
  pool->AddFlwor("point_count",
                 {Flwor::Kind::kCountEach, "regions", "", "item"});
  pool->AddFlwor("point_count", {Flwor::Kind::kCountEach, "regions",
                                 Pick(rng, kContinents), "item"});
  pool->AddFlwor("point_count", {Flwor::Kind::kCountEach, "open_auctions",
                                 "open_auction", "bidder"});
  pool->AddFlwor("point_sum",
                 {Flwor::Kind::kCountSum, "description", "", "annotation"});
  pool->AddFlwor("point_sum",
                 {Flwor::Kind::kCountSum, "emailaddress", "", "mail"});
}

/// A name `levels` steps below `name` along the schema, or a random
/// vocabulary name where the schema ends sooner.
template <typename Fallback>
std::string Descend(Rng& rng, std::string name, int levels,
                    Fallback fallback) {
  for (int i = 0; i < levels; ++i) {
    const auto it = Schema().find(name);
    if (it == Schema().end()) return i == 0 ? fallback() : name;
    name = Pick(rng, it->second);
  }
  return name;
}

/// Mostly distinct heavy queries: any-context, multi-step, reject- and
/// wide chains, each drawn once and asked of every document, and
/// aggregating FLWORs over document 0 whose names vary. Most steps
/// follow the XMark structure downwards, so answers are rarely empty;
/// one in four names is drawn from the whole vocabulary. The names are
/// drawn from a fixed seed: query costs are heavy-tailed, and a pool
/// drawn anew per seed moves the median read by a quarter from seed to
/// seed. The run's seed draws the documents the pool runs over and the
/// order it is sent in.
void ScanPool(const Corpus& corpus, PoolBuilder* pool) {
  Rng rng(20060619);
  std::vector<std::string> vocab = corpus.trees[0].names;
  std::sort(vocab.begin(), vocab.end());
  const auto any_name = [&] { return Pick(rng, vocab); };
  const auto below = [&](const std::string& from) {
    if (rng() % 4 == 0) return any_name();
    return Descend(rng, from, 1 + static_cast<int>(rng() % 2), any_name);
  };
  const auto outer = [&] {
    return std::string(rng() % 2 ? Pick(rng, kContainers)
                                 : Pick(rng, kMidLevel));
  };
  const auto either = [&](Op a, Op b) { return rng() % 2 ? a : b; };
  constexpr Op sn = Op::kSelectNarrow, sw = Op::kSelectWide,
               rn = Op::kRejectNarrow, rw = Op::kRejectWide;
  std::vector<std::pair<const char*, Chain>> templates;
  for (int i = 0; i < 40; ++i) {
    templates.push_back(
        {"any_context", {0, "*", {{either(sn, sw), any_name()}}}});
  }
  for (int i = 0; i < 60; ++i) {
    Chain chain{0, outer(), {}};
    const std::string b = below(chain.context);
    chain.steps = {{sn, b}, {sn, below(b)}};
    templates.push_back({"multi_step", chain});
  }
  // Reject chains start from low-cardinality containers: each context
  // element yields the layer minus a few rows.
  for (int i = 0; i < 40; ++i) {
    Chain chain{0, Pick(rng, kContainers), {}};
    std::string from = chain.context;
    if (rng() % 2) {
      from = below(from);
      chain.steps.push_back({sn, from});
    }
    chain.steps.push_back({either(rn, rw), below(from)});
    templates.push_back({"reject", chain});
  }
  for (int i = 0; i < 40; ++i) {
    Chain chain{0, Pick(rng, kMidLevel), {}};
    if (rng() % 2) chain.steps.push_back({sn, below(chain.context)});
    chain.steps.push_back({sw, any_name()});
    templates.push_back({"wide", chain});
  }
  for (uint32_t d = 0; d < corpus.trees.size(); ++d) {
    for (auto [family, chain] : templates) {
      chain.doc = d;
      pool->AddChain(family, chain);
    }
  }
  for (int i = 0; i < 80; ++i) {
    const std::string a = outer();
    pool->AddFlwor("aggregate", {Flwor::Kind::kCountEach, a, "", below(a)});
  }
  for (int i = 0; i < 20; ++i) {
    pool->AddFlwor("count_sum",
                   {Flwor::Kind::kCountSum, any_name(), "", any_name()});
  }
}

/// Inserts of random regions on items and auctions of the write
/// document; every eighth write deletes a person (tombstoning its base
/// region). Each write grows the pending delta by one row or tombstone,
/// so a run completes a fixed number of threshold compactions.
std::vector<WriteOp> WriteStream(Rng& rng, const Corpus& corpus,
                                 uint32_t doc, size_t count) {
  const Tree& tree = corpus.trees[doc];
  std::vector<uint32_t> inserts, deletes;
  for (const char* n : {"item", "open_auction", "closed_auction"}) {
    for (uint32_t k : tree.by_name[tree.NameId(n)]) inserts.push_back(k + 1);
  }
  for (uint32_t k : tree.by_name[tree.NameId("person")]) {
    deletes.push_back(k + 1);
  }
  std::shuffle(deletes.begin(), deletes.end(), rng);
  const uint64_t blob = corpus.blobs[doc].size();
  std::vector<WriteOp> ops;
  for (size_t i = 0; i < count; ++i) {
    WriteOp op;
    op.doc = doc;
    if (i % 8 == 7) {
      op.insert = false;
      op.id = deletes[(i / 8) % deletes.size()];
    } else {
      op.id = Pick(rng, inserts);
      op.start = static_cast<int64_t>(rng() % blob);
      op.end = op.start + static_cast<int64_t>(rng() % 400);
    }
    ops.push_back(op);
  }
  return ops;
}

/// The probe: an insert and a delete of the same item, cycling over a
/// few items, so the pending delta never exceeds two rows per item and
/// the probe compacts nothing however long it runs.
std::vector<WriteOp> ProbeStream(Rng& rng, const Corpus& corpus,
                                 uint32_t doc, size_t count) {
  const Tree& tree = corpus.trees[doc];
  std::vector<uint32_t> items;
  for (uint32_t k : tree.by_name[tree.NameId("item")]) items.push_back(k + 1);
  std::shuffle(items.begin(), items.end(), rng);
  items.resize(std::min(items.size(), kProbeIds));
  const uint64_t blob = corpus.blobs[doc].size();
  std::vector<WriteOp> ops;
  for (size_t i = 0; i < count; ++i) {
    WriteOp op;
    op.doc = doc;
    op.id = items[(i / 2) % items.size()];
    op.insert = i % 2 == 0;
    if (op.insert) {
      op.start = static_cast<int64_t>(rng() % blob);
      op.end = op.start + static_cast<int64_t>(rng() % 400);
    }
    ops.push_back(op);
  }
  return ops;
}

/// Gives each read of the write document one answer per prefix of the
/// write stream, by brute force over the base regions plus the writes
/// so far. Before any write the brute-force answer must equal the one
/// read off the nested original: the two oracles check each other.
bool AnswersAfterWrites(Workload* w, std::string* error) {
  std::vector<std::pair<ReadQuery*, Chain>> changing;
  for (const Chain& chain : WriteDocChains(w->write_doc)) {
    const std::string text = ChainText(chain);
    for (ReadQuery& q : w->reads) {
      if (q.text == text) changing.push_back({&q, chain});
    }
  }
  RegionModel model = BaseRegions(w->write_standoff_tree);
  for (size_t k = 0; k <= w->writes.size(); ++k) {
    if (k > 0) ApplyWrite(w->writes[k - 1], &model);
    for (auto& [q, chain] : changing) {
      const std::string payload =
          BruteChainPayload(w->write_standoff_tree, model, chain);
      const Answer answer = AnswerOf(payload, RowsOfChainPayload(payload));
      if (k > 0) {
        q->answers.push_back(answer);
      } else if (answer != q->answers[0]) {
        *error = "the brute-force and tree oracles disagree on " + q->text;
        return false;
      }
    }
  }
  return true;
}

}  // namespace

void ApplyWrite(const WriteOp& op, RegionModel* model) {
  auto& regions = (*model)[op.id - 1];
  if (op.insert) {
    regions.emplace_back(op.start, op.end);
  } else {
    regions.clear();
  }
}

bool BuildWorkload(const std::string& name, uint64_t seed, double seconds,
                   Workload* out, std::string* error) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<double> scales;
  if (name == "point_read" || name == "mixed_rw") {
    scales = {kPointScale, kWriteScale};
    out->write_doc = 1;
  } else if (name == "scan_read") {
    scales.assign(kScanDocs, kScanScale);
    out->write_doc = 0;
  } else {
    *error = "unknown workload '" + name + "'";
    return false;
  }
  if (!GenerateCorpus(scales, seed, &out->corpus, error)) return false;

  PoolBuilder pool(out->corpus);
  if (name == "scan_read") {
    ScanPool(out->corpus, &pool);
  } else {
    PointPool(rng, out->corpus.trees[0], out->write_doc, &pool);
  }
  if (!pool.CheckFamilies(error)) return false;
  out->reads = pool.Take();

  // scan_read keeps one connection: two heavy queries at once contend
  // for the host's cores and memory, and their times stop repeating.
  out->readers = name == "scan_read" ? 1 : 2;
  out->write_rate = kWriteRate;
  if (name == "mixed_rw") {
    out->writes_during_reads = true;
    out->writes = WriteStream(
        rng, out->corpus, out->write_doc,
        static_cast<size_t>(std::llround(kWriteRate * seconds)));
    if (!ParseTree(out->corpus.standoff_xml[out->write_doc],
                   &out->write_standoff_tree, error)) {
      return false;
    }
    for (const char* n : {"item", "open_auction", "closed_auction", "person"}) {
      out->durability_chains.push_back(
          {out->write_doc, n, {{Op::kSelectNarrow, "*"}}});
      out->durability_chains.push_back(
          {out->write_doc, "*", {{Op::kSelectNarrow, n}}});
    }
    if (!AnswersAfterWrites(out, error)) return false;
  } else {
    out->writes = ProbeStream(rng, out->corpus, out->write_doc, kProbeWrites);
  }
  return true;
}

}  // namespace perfbench
