#include "rt/chaos.h"

#include <algorithm>
#include <sstream>

#include "util/rng.h"

namespace gcs {

const char* to_string(ChaosOp::Kind k) {
  switch (k) {
    case ChaosOp::Kind::kCrash: return "crash";
    case ChaosOp::Kind::kRestart: return "restart";
    case ChaosOp::Kind::kCut: return "cut";
    case ChaosOp::Kind::kHeal: return "heal";
    case ChaosOp::Kind::kDrop: return "drop";
    case ChaosOp::Kind::kClear: return "clear";
    case ChaosOp::Kind::kStorm: return "storm";
    case ChaosOp::Kind::kCalm: return "calm";
    case ChaosOp::Kind::kCorrupt: return "corrupt";
    case ChaosOp::Kind::kConnReset: return "conn-reset";
  }
  return "?";
}

namespace {

struct OpShape {
  ChaosOp::Kind kind;
  int ids;     // node-id operands
  bool value;  // trailing numeric operand
};

const OpShape* op_shape(const std::string& word) {
  static const std::pair<const char*, OpShape> kTable[] = {
      {"crash", {ChaosOp::Kind::kCrash, 1, false}},
      {"restart", {ChaosOp::Kind::kRestart, 1, false}},
      {"cut", {ChaosOp::Kind::kCut, 2, false}},
      {"heal", {ChaosOp::Kind::kHeal, 2, false}},
      {"drop", {ChaosOp::Kind::kDrop, 2, true}},
      {"clear", {ChaosOp::Kind::kClear, 2, false}},
      {"storm", {ChaosOp::Kind::kStorm, 2, true}},
      {"calm", {ChaosOp::Kind::kCalm, 2, false}},
      {"corrupt", {ChaosOp::Kind::kCorrupt, 2, true}},
      {"conn-reset", {ChaosOp::Kind::kConnReset, 2, false}},
  };
  for (const auto& [name, shape] : kTable) {
    if (word == name) return &shape;
  }
  return nullptr;
}

/// A fault op's "active fault" key, used to pair faults with their clearing
/// ops when deriving phases. Clearing ops (restart/heal/clear/calm) return
/// the key they clear; non-fault pairings return kind == count of kinds.
struct FaultKey {
  int cls = -1;  // 0 node, 1 link (cut/drop/storm share the slot)
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  bool operator==(const FaultKey& o) const {
    return cls == o.cls && a == o.a && b == o.b;
  }
};

bool starts_fault(const ChaosOp& op) {
  switch (op.kind) {
    case ChaosOp::Kind::kCrash:
    case ChaosOp::Kind::kCut:
    case ChaosOp::Kind::kDrop:
    case ChaosOp::Kind::kStorm:
    case ChaosOp::Kind::kCorrupt:
      return true;
    default:
      return false;
  }
}

FaultKey fault_key(const ChaosOp& op) {
  FaultKey k;
  switch (op.kind) {
    case ChaosOp::Kind::kCrash:
    case ChaosOp::Kind::kRestart:
      k.cls = 0;
      k.a = op.a;
      break;
    default:
      k.cls = 1;
      k.a = std::min(op.a, op.b);
      k.b = std::max(op.a, op.b);
      break;
  }
  return k;
}

}  // namespace

ChaosScript ChaosScript::parse(const std::string& text) {
  ChaosScript script;
  std::string cleaned;
  cleaned.reserve(text.size());
  // ';' and newlines both separate ops; strip '#' comments to end of line.
  bool comment = false;
  for (char c : text) {
    if (c == '#') comment = true;
    if (c == '\n') comment = false;
    if (comment) continue;
    cleaned.push_back(c == ';' || c == '\n' ? '\v' : c);
  }
  std::istringstream lines(cleaned);
  std::string stmt;
  while (std::getline(lines, stmt, '\v')) {
    std::istringstream in(stmt);
    std::string word;
    if (!(in >> word)) continue;  // blank statement
    require(word == "at", "ChaosScript: expected 'at', got '" + word + "'");
    ChaosOp op;
    require(static_cast<bool>(in >> op.at) && op.at >= 0.0,
            "ChaosScript: bad time in '" + stmt + "'");
    require(static_cast<bool>(in >> word),
            "ChaosScript: missing op in '" + stmt + "'");
    const OpShape* shape = op_shape(word);
    require(shape != nullptr, "ChaosScript: unknown op '" + word + "'");
    op.kind = shape->kind;
    require(static_cast<bool>(in >> op.a) && op.a >= 0,
            "ChaosScript: bad node in '" + stmt + "'");
    if (shape->ids == 2) {
      require(static_cast<bool>(in >> op.b) && op.b >= 0 && op.b != op.a,
              "ChaosScript: bad link in '" + stmt + "'");
    }
    if (shape->value) {
      require(static_cast<bool>(in >> op.value) && op.value >= 0.0,
              "ChaosScript: bad value in '" + stmt + "'");
    }
    require(!(in >> word), "ChaosScript: trailing junk in '" + stmt + "'");
    script.ops_.push_back(op);
  }
  // An all-blank/all-comment script is almost certainly a mangled flag or a
  // file that failed to load — reject loudly rather than silently running
  // fault-free (a default-constructed ChaosScript is the explicit "no chaos").
  require(!script.ops_.empty(), "ChaosScript: empty script (no ops parsed)");
  std::stable_sort(script.ops_.begin(), script.ops_.end(),
                   [](const ChaosOp& x, const ChaosOp& y) { return x.at < y.at; });
  return script;
}

void ChaosScript::validate(int n) const {
  for (const ChaosOp& op : ops_) {
    require(op.a < n, "ChaosScript: node id " + std::to_string(op.a) +
                          " out of range for " + std::to_string(n) + " nodes");
    if (op.kind != ChaosOp::Kind::kCrash && op.kind != ChaosOp::Kind::kRestart) {
      require(op.b < n, "ChaosScript: node id " + std::to_string(op.b) +
                            " out of range for " + std::to_string(n) + " nodes");
    }
  }
}

ChaosScript ChaosScript::preset(const std::string& name, int n,
                                const std::vector<EdgeKey>& edges, Time horizon,
                                std::uint64_t seed) {
  require(n >= 2 && !edges.empty(), "ChaosScript: preset needs a topology");
  require(horizon > 0.0, "ChaosScript: preset needs a horizon");
  Rng rng(seed ^ 0xc4a05ULL);
  const auto node = [&] { return static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n))); };
  const auto edge = [&] { return edges[rng.below(edges.size())]; };
  const auto at = [&](double frac) { return horizon * frac; };
  std::ostringstream s;
  if (name == "crash") {
    const NodeId u = node();
    NodeId v = node();
    if (v == u) v = (v + 1) % n;
    s << "at " << at(0.20) << " crash " << u << "; at " << at(0.35)
      << " restart " << u << "; at " << at(0.60) << " crash " << v
      << "; at " << at(0.72) << " restart " << v;
  } else if (name == "partition") {
    const EdgeKey e = edge();
    const EdgeKey f = edge();
    s << "at " << at(0.20) << " cut " << e.a << " " << e.b << "; at "
      << at(0.45) << " heal " << e.a << " " << e.b << "; at " << at(0.65)
      << " cut " << f.a << " " << f.b << "; at " << at(0.78) << " heal "
      << f.a << " " << f.b;
  } else if (name == "churn") {
    const EdgeKey e = edge();
    const NodeId u = node();
    const EdgeKey f = edge();
    // Inter-fault gaps stay >= 0.14 * horizon so a stabilization window of
    // 0.1 * horizon leaves every phase a non-empty quiet gate.
    s << "at " << at(0.10) << " drop " << e.a << " " << e.b << " 0.5"
      << "; at " << at(0.22) << " clear " << e.a << " " << e.b
      << "; at " << at(0.36) << " crash " << u
      << "; at " << at(0.46) << " restart " << u
      << "; at " << at(0.62) << " storm " << f.a << " " << f.b << " 0.3"
      << "; at " << at(0.70) << " calm " << f.a << " " << f.b;
  } else if (name == "corrupt") {
    const EdgeKey e = edge();
    const EdgeKey f = edge();
    const EdgeKey g = edge();
    // Corrupt probabilities are powers of two so the bfloat16 fault slot
    // stores them exactly; the reset burst sits between the two corruption
    // phases with its last reset leaving a full quiet gate before 0.62h.
    s << "at " << at(0.10) << " corrupt " << e.a << " " << e.b << " 0.5"
      << "; at " << at(0.22) << " clear " << e.a << " " << e.b
      << "; at " << at(0.38) << " conn-reset " << f.a << " " << f.b
      << "; at " << at(0.41) << " conn-reset " << f.a << " " << f.b
      << "; at " << at(0.44) << " conn-reset " << f.a << " " << f.b
      << "; at " << at(0.62) << " corrupt " << g.a << " " << g.b << " 0.25"
      << "; at " << at(0.72) << " clear " << g.a << " " << g.b;
  } else {
    require(false, "ChaosScript: unknown preset '" + name +
                       "' (want crash|partition|churn|corrupt)");
  }
  return parse(s.str());
}

ChaosScript ChaosScript::from_flag(const std::string& spec, int n,
                                   const std::vector<EdgeKey>& edges,
                                   Time horizon, std::uint64_t seed) {
  if (spec.find("at ") != std::string::npos) return parse(spec);
  return preset(spec, n, edges, horizon, seed);
}

std::vector<ChaosPhase> ChaosScript::phases(Time horizon,
                                            Duration stabilization) const {
  std::vector<ChaosPhase> out;
  std::vector<FaultKey> active;
  for (const ChaosOp& op : ops_) {
    if (op.kind == ChaosOp::Kind::kConnReset) {
      // Instantaneous fault: the disturbance starts and "clears" at the
      // same instant (the transport heals itself), so it opens a phase of
      // its own when the air is otherwise quiet and merely extends the
      // label of an already-active one.
      if (active.empty()) {
        ChaosPhase phase;
        phase.fault_at = op.at;
        phase.clear_at = op.at;
        phase.label = to_string(op.kind);
        out.push_back(phase);
      } else if (!out.empty()) {
        out.back().label += "+" + std::string(to_string(op.kind));
      }
      continue;
    }
    const FaultKey key = fault_key(op);
    const auto it = std::find(active.begin(), active.end(), key);
    if (starts_fault(op)) {
      if (active.empty()) {
        ChaosPhase phase;
        phase.fault_at = op.at;
        phase.label = to_string(op.kind);
        out.push_back(phase);
      } else if (!out.empty()) {
        out.back().label += "+" + std::string(to_string(op.kind));
      }
      if (it == active.end()) active.push_back(key);
    } else if (it != active.end()) {
      active.erase(it);
      if (active.empty() && !out.empty()) out.back().clear_at = op.at;
    }
  }
  // A never-cleared fault gates nothing (its phase ends at the horizon).
  if (!active.empty() && !out.empty() && out.back().clear_at == 0.0) {
    out.back().clear_at = horizon;
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].gate_begin = out[i].clear_at + stabilization;
    out[i].gate_end = i + 1 < out.size() ? out[i + 1].fault_at : horizon;
  }
  return out;
}

std::string ChaosScript::str() const {
  std::ostringstream s;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const ChaosOp& op = ops_[i];
    if (i > 0) s << "; ";
    s << "at " << op.at << " " << to_string(op.kind) << " " << op.a;
    if (op.kind != ChaosOp::Kind::kCrash && op.kind != ChaosOp::Kind::kRestart) {
      s << " " << op.b;
    }
    if (op.kind == ChaosOp::Kind::kDrop || op.kind == ChaosOp::Kind::kStorm ||
        op.kind == ChaosOp::Kind::kCorrupt) {
      s << " " << op.value;
    }
  }
  return s.str();
}

void ChaosScheduler::poll(Time now) {
  const auto& ops = script_.ops();
  while (next_ < ops.size() && ops[next_].at <= now) {
    const ChaosOp& op = ops[next_++];
    switch (op.kind) {
      case ChaosOp::Kind::kCrash:
        target_.chaos_crash(op.a);
        break;
      case ChaosOp::Kind::kRestart:
        target_.chaos_restart(op.a);
        break;
      case ChaosOp::Kind::kCut:
        target_.chaos_link(op.a, op.b, LinkFault{1.0f, 0.0f});
        target_.chaos_link(op.b, op.a, LinkFault{1.0f, 0.0f});
        break;
      case ChaosOp::Kind::kHeal:
      case ChaosOp::Kind::kCalm:
        target_.chaos_link(op.a, op.b, LinkFault{});
        target_.chaos_link(op.b, op.a, LinkFault{});
        break;
      case ChaosOp::Kind::kDrop:
        target_.chaos_link(op.a, op.b,
                           LinkFault{static_cast<float>(op.value), 0.0f});
        break;
      case ChaosOp::Kind::kClear:
        target_.chaos_link(op.a, op.b, LinkFault{});
        break;
      case ChaosOp::Kind::kStorm: {
        const LinkFault f{0.0f, static_cast<float>(op.value)};
        target_.chaos_link(op.a, op.b, f);
        target_.chaos_link(op.b, op.a, f);
        break;
      }
      case ChaosOp::Kind::kCorrupt: {
        LinkFault f;
        f.corrupt = static_cast<float>(op.value);
        target_.chaos_link(op.a, op.b, f);
        break;
      }
      case ChaosOp::Kind::kConnReset:
        target_.chaos_conn_reset(op.a, op.b);
        break;
    }
  }
}

LinkChaos::LinkChaos(int n, NodeId self, std::uint64_t seed)
    : n_(n),
      self_(self),
      drop_draw_(seed, Domain::kChaosDrop),
      corrupt_draw_(seed, Domain::kChaosCorrupt) {
  require(n >= 1 && self >= 0 && self < n, "LinkChaos: bad node");
  faults_ = std::make_unique<std::atomic<std::uint64_t>[]>(static_cast<std::size_t>(n));
  sends_.assign(static_cast<std::size_t>(n), 0);
}

void LinkChaos::set(NodeId to, const LinkFault& f) {
  require(to >= 0 && to < n_ && to != self_, "LinkChaos: bad link");
  faults_[static_cast<std::size_t>(to)].store(pack_link_fault(f),
                                              std::memory_order_relaxed);
}

ChaosDecision LinkChaos::decide(NodeId to) {
  const auto i = static_cast<std::size_t>(to);
  ChaosDecision d;
  d.send = sends_[i]++;
  const LinkFault f = unpack_link_fault(faults_[i].load(std::memory_order_relaxed));
  d.drop = f.drop > 0.0f && drop_draw_.uniform01(self_, to, d.send) < f.drop;
  if (f.corrupt > 0.0f) {
    d.corrupt_draw = corrupt_draw_.bits(self_, to, d.send);
    d.corrupt = unit_double(d.corrupt_draw) < static_cast<double>(f.corrupt);
  }
  d.extra_delay = f.extra_delay;
  return d;
}

void LinkChaos::stash(Time release_at, const std::uint8_t* frame, std::size_t len,
                      NodeId to) {
  Stashed s;
  s.release_at = release_at;
  s.seq = stash_seq_++;
  std::copy(frame, frame + len, s.frame.begin());
  s.len = len;
  s.to = to;
  stash_.push(s);
}

}  // namespace gcs
