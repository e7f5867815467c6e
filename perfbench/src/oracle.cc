#include "oracle.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

namespace {

constexpr uint32_t kAny = 0xFFFFFFFEu;

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

bool IsSpace(char c) { return c == ' ' || c == '\n' || c == '\t' || c == '\r'; }

bool ParseInt(std::string_view text, int64_t* out) {
  if (text.empty()) return false;
  int64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
  }
  *out = v;
  return true;
}

/// A layer name as the chain sees it: kAny for "*", kNoName when the
/// document has no such element.
uint32_t LayerName(const Tree& tree, const std::string& name) {
  return name == "*" ? kAny : tree.NameId(name);
}

/// Appends the nodes of layer `name` with pre order in [lo, hi].
void AppendRange(const Tree& tree, uint32_t name, uint32_t lo, uint32_t hi,
                 std::vector<uint32_t>* out) {
  if (name == kAny) {
    for (uint32_t k = lo; k <= hi; ++k) out->push_back(k);
    return;
  }
  if (name == kNoName) return;
  const std::vector<uint32_t>& nodes = tree.by_name[name];
  for (auto it = std::lower_bound(nodes.begin(), nodes.end(), lo);
       it != nodes.end() && *it <= hi; ++it) {
    out->push_back(*it);
  }
}

struct Scratch {
  std::vector<uint32_t> mark;
  uint32_t stamp = 0;
  std::vector<uint32_t> anc, merged, sel;
};

/// The select- set of `cur` (sorted, unique) in layer `name`:
/// descendants-or-self, plus strict ancestors when `wide`.
void Select(const Tree& tree, bool wide, uint32_t name,
            const std::vector<uint32_t>& cur, Scratch* s,
            std::vector<uint32_t>* out) {
  out->clear();
  int64_t covered = -1;
  for (uint32_t p : cur) {
    if (static_cast<int64_t>(p) <= covered) continue;
    const uint32_t hi = p + tree.size[p];
    AppendRange(tree, name, p, hi, out);
    covered = hi;
  }
  if (!wide || name == kNoName) return;
  if (s->mark.size() != tree.node_count()) {
    s->mark.assign(tree.node_count(), 0);
    s->stamp = 0;
  }
  ++s->stamp;
  s->anc.clear();
  for (uint32_t p : cur) {
    for (int32_t a = tree.parent[p]; a >= 0 && s->mark[a] != s->stamp;
         a = tree.parent[a]) {
      s->mark[a] = s->stamp;
      if (name == kAny || tree.name[a] == name) {
        s->anc.push_back(static_cast<uint32_t>(a));
      }
    }
  }
  if (s->anc.empty()) return;
  std::sort(s->anc.begin(), s->anc.end());
  s->merged.clear();
  std::set_union(out->begin(), out->end(), s->anc.begin(), s->anc.end(),
                 std::back_inserter(s->merged));
  out->swap(s->merged);
}

/// One chain step from `cur` into `next`, per the file comment of
/// oracle.h. An empty running set selects and rejects nothing.
void Step(const Tree& tree, const ChainStep& step,
          const std::vector<uint32_t>& cur, Scratch* s,
          std::vector<uint32_t>* next) {
  next->clear();
  if (cur.empty()) return;
  const uint32_t name = LayerName(tree, step.name);
  const bool wide = step.op == Op::kSelectWide || step.op == Op::kRejectWide;
  const bool reject =
      step.op == Op::kRejectNarrow || step.op == Op::kRejectWide;
  if (!reject) {
    Select(tree, wide, name, cur, s, next);
    return;
  }
  Select(tree, wide, name, cur, s, &s->sel);
  std::vector<uint32_t> universe;
  const std::vector<uint32_t>* u = &universe;
  if (name == kAny) {
    universe.resize(tree.node_count());
    for (uint32_t k = 0; k < universe.size(); ++k) universe[k] = k;
  } else if (name != kNoName) {
    u = &tree.by_name[name];
  }
  std::set_difference(u->begin(), u->end(), s->sel.begin(), s->sel.end(),
                      std::back_inserter(*next));
}

/// Evaluates /site/sn::steps[0]/sn::steps[1]... with an optional @id
/// filter on the last step.
std::vector<uint32_t> EvalPath(const Tree& tree,
                               const std::vector<std::string>& steps,
                               const std::string& last_id) {
  std::vector<uint32_t> cur;
  if (tree.node_count() > 0 && tree.names[tree.name[0]] == "site") {
    cur.push_back(0);
  }
  Scratch scratch;
  std::vector<uint32_t> next;
  for (size_t i = 0; i < steps.size(); ++i) {
    Select(tree, false, tree.NameId(steps[i]), cur, &scratch, &next);
    if (i + 1 == steps.size() && !last_id.empty()) {
      next.erase(std::remove_if(next.begin(), next.end(),
                                [&](uint32_t k) {
                                  return tree.id_attr[k] != last_id;
                                }),
                 next.end());
    }
    cur.swap(next);
  }
  return cur;
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kSelectNarrow: return "sn";
    case Op::kSelectWide: return "sw";
    case Op::kRejectNarrow: return "rn";
    case Op::kRejectWide: return "rw";
  }
  return "sn";
}

}  // namespace

uint32_t Tree::NameId(std::string_view n) const {
  for (uint32_t i = 0; i < names.size(); ++i) {
    if (names[i] == n) return i;
  }
  return kNoName;
}

bool ParseTree(std::string_view xml, Tree* out, std::string* error) {
  *out = Tree();
  std::vector<uint32_t> open;
  size_t pos = 0;
  const auto fail = [&](const char* what) {
    *error = std::string(what) + " at byte " + std::to_string(pos);
    return false;
  };
  while (true) {
    pos = xml.find('<', pos);
    if (pos == std::string_view::npos) break;
    ++pos;
    if (pos < xml.size() && (xml[pos] == '?' || xml[pos] == '!')) {
      const size_t close = xml.find('>', pos);
      if (close == std::string_view::npos) return fail("unclosed declaration");
      pos = close + 1;
      continue;
    }
    if (pos < xml.size() && xml[pos] == '/') {
      const size_t close = xml.find('>', pos);
      if (close == std::string_view::npos || open.empty()) {
        return fail("bad end tag");
      }
      const uint32_t node = open.back();
      open.pop_back();
      out->size[node] = static_cast<uint32_t>(out->name.size() - node - 1);
      pos = close + 1;
      continue;
    }
    size_t p = pos;
    while (p < xml.size() && !IsSpace(xml[p]) && xml[p] != '>' &&
           xml[p] != '/') {
      ++p;
    }
    if (p == pos || p >= xml.size()) return fail("bad start tag");
    const std::string_view tag = xml.substr(pos, p - pos);
    uint32_t name_id = out->NameId(tag);
    if (name_id == kNoName) {
      name_id = static_cast<uint32_t>(out->names.size());
      out->names.emplace_back(tag);
      out->by_name.emplace_back();
    }
    const uint32_t node = static_cast<uint32_t>(out->name.size());
    if (open.empty() && node != 0) return fail("second root element");
    out->name.push_back(name_id);
    out->size.push_back(0);
    out->parent.push_back(open.empty() ? -1 : static_cast<int32_t>(open.back()));
    out->id_attr.emplace_back();
    out->start.push_back(-1);
    out->end.push_back(-1);
    out->by_name[name_id].push_back(node);
    bool self_closing = false;
    while (true) {
      while (p < xml.size() && IsSpace(xml[p])) ++p;
      if (p >= xml.size()) return fail("unterminated tag");
      if (xml[p] == '>') {
        ++p;
        break;
      }
      if (xml[p] == '/') {
        if (p + 1 >= xml.size() || xml[p + 1] != '>') return fail("bad '/'");
        self_closing = true;
        p += 2;
        break;
      }
      const size_t eq = xml.find('=', p);
      if (eq == std::string_view::npos || eq + 1 >= xml.size() ||
          xml[eq + 1] != '"') {
        return fail("bad attribute");
      }
      const std::string_view attr = xml.substr(p, eq - p);
      const size_t vend = xml.find('"', eq + 2);
      if (vend == std::string_view::npos) return fail("unterminated value");
      const std::string_view value = xml.substr(eq + 2, vend - eq - 2);
      if (attr == "id") {
        out->id_attr[node] = std::string(value);
      } else if (attr == "start" || attr == "end") {
        int64_t v = 0;
        if (!ParseInt(value, &v)) return fail("bad region value");
        (attr == "start" ? out->start : out->end)[node] = v;
      }
      p = vend + 1;
    }
    if (!self_closing) open.push_back(node);
    pos = p;
  }
  if (!open.empty()) return fail("unclosed element");
  if (out->name.empty()) return fail("no root element");
  return true;
}

std::string ChainText(const Chain& chain) {
  std::string text = "chain doc=" + std::to_string(chain.doc) +
                     " ctx=" + chain.context + " steps=";
  for (size_t i = 0; i < chain.steps.size(); ++i) {
    if (i) text += ",";
    text += OpName(chain.steps[i].op);
    text += ":" + chain.steps[i].name;
  }
  return text;
}

std::string ExpectedChainPayload(const Tree& tree, const Chain& chain) {
  std::vector<uint32_t> context;
  const uint32_t ctx = LayerName(tree, chain.context);
  if (tree.node_count() > 0) {
    AppendRange(tree, ctx, 0, static_cast<uint32_t>(tree.node_count() - 1),
                &context);
  }
  std::string payload;
  PutU32(&payload, static_cast<uint32_t>(context.size()));
  for (uint32_t k : context) PutU32(&payload, k + 1);
  const size_t count_at = payload.size();
  PutU32(&payload, 0);
  uint32_t matches = 0;
  Scratch scratch;
  std::vector<uint32_t> cur, next;
  for (uint32_t iter = 0; iter < context.size(); ++iter) {
    cur.assign(1, context[iter]);
    for (const ChainStep& step : chain.steps) {
      Step(tree, step, cur, &scratch, &next);
      cur.swap(next);
    }
    for (uint32_t k : cur) {
      PutU32(&payload, iter);
      PutU32(&payload, k + 1);
    }
    matches += static_cast<uint32_t>(cur.size());
  }
  for (int i = 0; i < 4; ++i) {
    payload[count_at + i] = static_cast<char>(matches >> (8 * i));
  }
  return payload;
}

std::string FlworText(const Flwor& flwor) {
  switch (flwor.kind) {
    case Flwor::Kind::kPersonName:
      return "flwor /site/select-narrow::people/select-narrow::person"
             "[@id = \"" + flwor.a + "\"]/select-narrow::name";
    case Flwor::Kind::kCountEach: {
      std::string in = "/site/select-narrow::" + flwor.a;
      if (!flwor.a2.empty()) in += "/select-narrow::" + flwor.a2;
      return "flwor for $x in " + in + " return count($x/select-narrow::" +
             flwor.b + ")";
    }
    case Flwor::Kind::kCountSum:
      return "flwor count(/site/select-narrow::" + flwor.a +
             ") + count(/site/select-narrow::" + flwor.b + ")";
  }
  return "";
}

std::string ExpectedFlworPayload(const Tree& tree, const Flwor& flwor) {
  std::string payload;
  switch (flwor.kind) {
    case Flwor::Kind::kPersonName: {
      const std::vector<uint32_t> people =
          EvalPath(tree, {"people", "person"}, flwor.a);
      Scratch scratch;
      std::vector<uint32_t> names;
      Select(tree, false, tree.NameId("name"), people, &scratch, &names);
      PutU32(&payload, static_cast<uint32_t>(names.size()));
      for (uint32_t k : names) {
        payload.push_back(0);
        PutU32(&payload, 0);
        PutU32(&payload, k + 1);
      }
      break;
    }
    case Flwor::Kind::kCountEach: {
      std::vector<std::string> in{flwor.a};
      if (!flwor.a2.empty()) in.push_back(flwor.a2);
      const std::vector<uint32_t> xs = EvalPath(tree, in, "");
      PutU32(&payload, static_cast<uint32_t>(xs.size()));
      Scratch scratch;
      std::vector<uint32_t> hits;
      const uint32_t b = tree.NameId(flwor.b);
      for (uint32_t x : xs) {
        Select(tree, false, b, {x}, &scratch, &hits);
        payload.push_back(1);
        PutU64(&payload, hits.size());
      }
      break;
    }
    case Flwor::Kind::kCountSum: {
      const size_t total = EvalPath(tree, {flwor.a}, "").size() +
                           EvalPath(tree, {flwor.b}, "").size();
      PutU32(&payload, 1);
      payload.push_back(1);
      PutU64(&payload, total);
      break;
    }
  }
  return payload;
}

RegionModel BaseRegions(const Tree& standoff_tree) {
  RegionModel regions(standoff_tree.node_count());
  for (size_t k = 0; k < regions.size(); ++k) {
    if (standoff_tree.start[k] >= 0 && standoff_tree.end[k] >= 0) {
      regions[k].emplace_back(standoff_tree.start[k], standoff_tree.end[k]);
    }
  }
  return regions;
}

std::string BruteChainPayload(const Tree& standoff_tree,
                              const RegionModel& regions, const Chain& chain) {
  using Regions = std::vector<std::pair<int64_t, int64_t>>;
  const auto layer = [&](const std::string& name) {
    std::vector<uint32_t> nodes;
    const uint32_t id = LayerName(standoff_tree, name);
    for (uint32_t k = 0; k < regions.size(); ++k) {
      if (regions[k].empty()) continue;
      if (id == kAny || standoff_tree.name[k] == id) nodes.push_back(k);
    }
    return nodes;
  };
  const std::vector<uint32_t> context = layer(chain.context);
  std::vector<std::vector<uint32_t>> layers;
  for (const ChainStep& step : chain.steps) layers.push_back(layer(step.name));

  std::string payload;
  PutU32(&payload, static_cast<uint32_t>(context.size()));
  for (uint32_t k : context) PutU32(&payload, k + 1);
  std::string rows;
  uint32_t matches = 0;
  for (uint32_t iter = 0; iter < context.size(); ++iter) {
    Regions cur = regions[context[iter]];
    std::vector<uint32_t> ids;
    for (size_t e = 0; e < chain.steps.size(); ++e) {
      const Op op = chain.steps[e].op;
      const bool narrow = op == Op::kSelectNarrow || op == Op::kRejectNarrow;
      const bool reject = op == Op::kRejectNarrow || op == Op::kRejectWide;
      ids.clear();
      if (!cur.empty()) {
        for (uint32_t k : layers[e]) {
          bool hit = false;
          for (const auto& [s, en] : regions[k]) {
            for (const auto& [cs, ce] : cur) {
              if (narrow ? (cs <= s && en <= ce) : (cs <= en && s <= ce)) {
                hit = true;
              }
            }
          }
          if (hit != reject) ids.push_back(k);
        }
      }
      cur.clear();
      for (uint32_t k : ids) {
        cur.insert(cur.end(), regions[k].begin(), regions[k].end());
      }
    }
    for (uint32_t k : ids) {
      PutU32(&rows, iter);
      PutU32(&rows, k + 1);
    }
    matches += static_cast<uint32_t>(ids.size());
  }
  PutU32(&payload, matches);
  payload += rows;
  return payload;
}

uint64_t HashPayload(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull ^ (bytes.size() * 0x9E3779B97F4A7C15ull);
  size_t i = 0;
  for (; i + 4 <= bytes.size(); i += 4) {
    uint32_t word = 0;
    std::memcpy(&word, bytes.data() + i, 4);
    h = (h ^ word) * 0x100000001b3ull;
  }
  for (; i < bytes.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(bytes[i])) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
