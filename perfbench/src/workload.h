// Workload definitions: the seeded corpus, the read query pool with
// each query's expected answer, and the write stream of mixed_rw.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "oracle.h"

namespace perfbench {

struct Corpus {
  std::vector<std::string> names;         // document names
  std::vector<std::string> standoff_xml;  // what the server ingests
  std::vector<std::string> blobs;         // StandOff base texts
  std::vector<Tree> trees;                // the parsed nested originals
};

/// What a correct reply carries: its row (or item) count, its size and
/// the hash of its payload.
struct Answer {
  uint64_t hash = 0;
  uint64_t rows = 0;
  size_t bytes = 0;
};

struct ReadQuery {
  std::string text;  // kQueryReq body
  /// answers[k] is the answer after the first k writes of the run's
  /// write stream. One answer for a query no write changes; on mixed_rw
  /// the reads of the write document have one per prefix of the stream.
  std::vector<Answer> answers;
};

struct WriteOp {
  bool insert = true;
  uint32_t doc = 0;
  uint32_t id = 0;  // pre of the annotated element
  int64_t start = 0, end = 0;
};

/// Applies one acknowledged write to the region model: an insert adds a
/// region to the element, a delete drops all of them.
void ApplyWrite(const WriteOp& op, RegionModel* model);

struct Workload {
  uint32_t shards = 2;
  Corpus corpus;
  std::vector<ReadQuery> reads;
  /// Closed-loop read connections.
  uint32_t readers = 2;
  /// Writes a run sends, open loop at `write_rate` per second: during
  /// the reads on mixed_rw, as the probe that ends a traced run of the
  /// read-only workloads otherwise.
  bool writes_during_reads = false;
  double write_rate = 0;
  std::vector<WriteOp> writes;
  uint32_t write_doc = 0;
  /// The write document's StandOff form (base regions for the
  /// brute-force oracle) and the chains that read every written id back
  /// after the restart.
  Tree write_standoff_tree;
  std::vector<Chain> durability_chains;
};

/// Builds `name` from `seed`: generates the corpus, the query pool and
/// the write stream, and computes every expected answer. `seconds`
/// sizes the write stream. Returns false (with *error) on an unknown
/// workload, a corpus that fails to parse, or a query family whose
/// answers are all empty.
bool BuildWorkload(const std::string& name, uint64_t seed, double seconds,
                   Workload* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
