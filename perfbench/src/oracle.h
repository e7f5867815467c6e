// The benchmark's independent answer checker. It never calls the query
// kernels: expected answers come from the nested XMark originals, parsed
// by its own small XML reader.
//
// The StandOff transform gives every element one region and makes
// region containment equal ancestorship in the nested original, so
//   select-narrow  = descendant-or-self,
//   select-wide    = ancestor-or-self plus descendants (a laminar family
//                    overlaps only along one root-to-leaf path),
//   reject-*       = the layer minus the matching select-* set,
// and node k of the nested document (document order, root = 0) is pre
// k + 1 in the StandOff document (pre 0 is the document node).
//
// Durability checks use a second, brute-force oracle over explicit
// region lists: the base regions read from the StandOff text plus the
// model of every acknowledged write.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

inline constexpr uint32_t kNoName = 0xFFFFFFFFu;

/// An element tree in document order; attributes kept: `id`, and the
/// `start`/`end` region of a StandOff annotation.
struct Tree {
  std::vector<std::string> names;  // name id -> name
  std::vector<uint32_t> name;      // per node
  std::vector<uint32_t> size;      // descendant count per node
  std::vector<int32_t> parent;     // -1 for the root
  std::vector<std::string> id_attr;
  std::vector<int64_t> start, end;  // -1 when absent
  std::vector<std::vector<uint32_t>> by_name;  // name id -> sorted nodes

  uint32_t NameId(std::string_view n) const;
  size_t node_count() const { return name.size(); }
};

/// Parses the element structure of `xml` (no DTD, comments or CDATA;
/// attribute values in double quotes). Returns false with *error set on
/// malformed input.
bool ParseTree(std::string_view xml, Tree* out, std::string* error);

enum class Op { kSelectNarrow, kSelectWide, kRejectNarrow, kRejectWide };

struct ChainStep {
  Op op = Op::kSelectNarrow;
  std::string name;  // "*" = any element
};

struct Chain {
  uint32_t doc = 0;
  std::string context;  // "*" = any element
  std::vector<ChainStep> steps;
};

/// The kQueryReq text of a chain query.
std::string ChainText(const Chain& chain);

/// The exact result payload the server must send for `chain` over the
/// document whose nested original is `tree`: u32 context count, the
/// context pres, u32 match count, then (u32 iter, u32 pre) rows in
/// (iter, pre) order.
std::string ExpectedChainPayload(const Tree& tree, const Chain& chain);

/// FLWOR templates over document 0 (absolute paths bind to it):
///   kPersonName   /site/sn::people/sn::person[@id="<a>"]/sn::name
///   kCountEach    for $x in /site/sn::<a>[/sn::<a2>]
///                 return count($x/sn::<b>)
///   kCountSum     count(/site/sn::<a>) + count(/site/sn::<b>)
struct Flwor {
  enum class Kind { kPersonName, kCountEach, kCountSum };
  Kind kind = Kind::kCountEach;
  std::string a, a2, b;
};

std::string FlworText(const Flwor& flwor);
/// The exact FLWOR payload: u32 item count, then per item a kind byte
/// (0 node, 1 int) and the value (node: u32 doc + u32 pre; int: i64).
std::string ExpectedFlworPayload(const Tree& tree, const Flwor& flwor);

/// Regions per element of one document: base regions, with every
/// acknowledged write applied in order (insert appends a region, delete
/// drops all of them).
using RegionModel = std::vector<std::vector<std::pair<int64_t, int64_t>>>;

RegionModel BaseRegions(const Tree& standoff_tree);

/// Brute-force chain over explicit regions (nested loops, no tree
/// shortcuts): `ctx` named elements with at least one region are the
/// iterations; every step keeps the layer's elements one of whose
/// regions is contained in (narrow) or overlaps (wide) a region of the
/// running set, complemented for reject-. Same payload layout as
/// ExpectedChainPayload.
std::string BruteChainPayload(const Tree& standoff_tree,
                              const RegionModel& regions, const Chain& chain);

/// Order-sensitive 64-bit hash of a payload (4-byte words, then the
/// tail bytes). Not cryptographic; detects any changed row.
uint64_t HashPayload(std::string_view bytes);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
