#include "nepal/nfa.h"

#include <cstdio>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace nepal::nql {

namespace {

// Thompson construction scratchpad: states with both epsilon and atom
// edges. Fragments are (start, end) state pairs; end is always a distinct
// junction state so fragments compose by epsilon-wiring alone.
class EpsNfa {
 public:
  struct Frag {
    int start = -1;
    int end = -1;
  };

  int NewState() {
    atom_out_.emplace_back();
    eps_out_.emplace_back();
    return static_cast<int>(atom_out_.size()) - 1;
  }

  void Eps(int from, int to) { eps_out_[static_cast<size_t>(from)].push_back(to); }

  void AtomEdge(int from, const storage::CompiledAtom& atom, int to) {
    NfaTransition tr;
    tr.target = to;
    tr.atom = atom;
    atom_out_[static_cast<size_t>(from)].push_back(std::move(tr));
  }

  // Emits the fragment for a logical subtree, following EmitProgram's
  // pruning conventions: a pruned node matches only the empty sequence
  // (the enclosing Seq/Alt/root decide whether that is reachable at all).
  Frag Emit(const LogicalNode& node) {
    switch (node.kind) {
      case LogicalNode::Kind::kAtom: {
        if (node.pruned) return EmptyFrag();
        Frag f;
        f.start = NewState();
        f.end = NewState();
        AtomEdge(f.start, node.atom, f.end);
        return f;
      }
      case LogicalNode::Kind::kSeq: {
        Frag f;
        f.start = NewState();
        int cur = f.start;
        for (const LogicalNode& child : node.children) {
          // A pruned optional child matches only the empty sequence.
          if (child.pruned) continue;
          Frag part = Emit(child);
          Eps(cur, part.start);
          cur = part.end;
        }
        f.end = cur;
        return f;
      }
      case LogicalNode::Kind::kAlt: {
        Frag f;
        f.start = NewState();
        f.end = NewState();
        for (const LogicalNode& child : node.children) {
          if (child.pruned) {
            // A pruned optional branch still matches the empty sequence; a
            // pruned mandatory branch contributes nothing.
            if (child.is_optional()) Eps(f.start, f.end);
            continue;
          }
          Frag part = Emit(child);
          Eps(f.start, part.start);
          Eps(part.end, f.end);
        }
        return f;
      }
      case LogicalNode::Kind::kRep: {
        if (node.pruned) return EmptyFrag();
        Frag f;
        f.start = NewState();
        int cur = f.start;
        const bool unbounded = node.max_rep == kUnboundedRep;
        // Mandatory copies: body^min.
        for (int i = 0; i < node.min_rep; ++i) {
          Frag part = Emit(node.children[0]);
          Eps(cur, part.start);
          cur = part.end;
        }
        int end = NewState();
        Eps(cur, end);  // stop after the minimum
        if (unbounded) {
          // One looping copy recognizes every further iteration count —
          // the part a finite unroll cannot express.
          Frag part = Emit(node.children[0]);
          Eps(cur, part.start);
          Eps(part.end, part.start);
          Eps(part.end, end);
        } else {
          // Optional copies: a DAG where each copy encodes one extra
          // iteration.
          for (int i = node.min_rep; i < node.max_rep; ++i) {
            Frag part = Emit(node.children[0]);
            Eps(cur, part.start);
            cur = part.end;
            Eps(cur, end);
          }
        }
        f.end = end;
        return f;
      }
    }
    return EmptyFrag();
  }

  // Eliminates epsilon transitions by closure and renumbers states in BFS
  // order from the start, so identical inputs always yield an identical
  // table (stable EXPLAIN output, reproducible tests).
  Nfa Finalize(int start, int accept) const {
    const size_t n = atom_out_.size();
    std::vector<std::vector<int>> closures(n);
    for (size_t s = 0; s < n; ++s) {
      std::vector<bool> seen(n, false);
      std::vector<int> stack = {static_cast<int>(s)};
      seen[s] = true;
      while (!stack.empty()) {
        int t = stack.back();
        stack.pop_back();
        closures[s].push_back(t);
        for (int u : eps_out_[static_cast<size_t>(t)]) {
          if (!seen[static_cast<size_t>(u)]) {
            seen[static_cast<size_t>(u)] = true;
            stack.push_back(u);
          }
        }
      }
    }

    // Epsilon-free view: state s accepts iff its closure reaches `accept`;
    // its transitions are the union of its closure members' atom edges.
    auto accepts = [&](int s) {
      for (int t : closures[static_cast<size_t>(s)]) {
        if (t == accept) return true;
      }
      return false;
    };

    // BFS from the start over atom transitions, renumbering on discovery.
    std::vector<int> renumber(n, -1);
    std::vector<int> order;
    renumber[static_cast<size_t>(start)] = 0;
    order.push_back(start);
    for (size_t head = 0; head < order.size(); ++head) {
      int s = order[head];
      for (int t : closures[static_cast<size_t>(s)]) {
        for (const NfaTransition& tr : atom_out_[static_cast<size_t>(t)]) {
          if (renumber[static_cast<size_t>(tr.target)] < 0) {
            renumber[static_cast<size_t>(tr.target)] =
                static_cast<int>(order.size());
            order.push_back(tr.target);
          }
        }
      }
    }

    Nfa out;
    out.start = 0;
    out.states.resize(order.size());
    out.accept.resize(order.size(), false);
    for (size_t i = 0; i < order.size(); ++i) {
      int s = order[i];
      out.accept[i] = accepts(s);
      // Dedup structurally identical transitions (same target, same atom):
      // distinct closure members often share edges.
      std::unordered_set<std::string> dedup;
      for (int t : closures[static_cast<size_t>(s)]) {
        for (const NfaTransition& tr : atom_out_[static_cast<size_t>(t)]) {
          NfaTransition moved;
          moved.target = renumber[static_cast<size_t>(tr.target)];
          moved.atom = tr.atom;
          std::string key =
              std::to_string(moved.target) + "\x1f" + moved.atom.ToString();
          if (!dedup.insert(std::move(key)).second) continue;
          out.states[i].push_back(std::move(moved));
        }
      }
    }
    return out;
  }

 private:
  Frag EmptyFrag() {
    Frag f;
    f.start = NewState();
    f.end = f.start;
    return f;
  }

  std::vector<std::vector<NfaTransition>> atom_out_;
  std::vector<std::vector<int>> eps_out_;
};

}  // namespace

Nfa BuildNfa(const LogicalNode& node) {
  EpsNfa eps;
  EpsNfa::Frag frag = eps.Emit(node);
  return eps.Finalize(frag.start, frag.end);
}

Nfa BuildNfa(const RpeNode& resolved) {
  return BuildNfa(BuildLogicalPlan(resolved).root);
}

Nfa ReverseNfa(const Nfa& nfa) {
  EpsNfa eps;
  // Mirror every state, flip every atom edge, then epsilon-wire a fresh
  // start to the old accept states; the old start becomes the accept.
  const size_t n = nfa.num_states();
  for (size_t s = 0; s < n; ++s) eps.NewState();
  int start = eps.NewState();
  int accept = eps.NewState();
  for (size_t s = 0; s < n; ++s) {
    for (const NfaTransition& tr : nfa.states[s]) {
      eps.AtomEdge(tr.target, tr.atom, static_cast<int>(s));
    }
    if (nfa.accept[s]) eps.Eps(start, static_cast<int>(s));
  }
  if (nfa.start >= 0) eps.Eps(nfa.start, accept);
  return eps.Finalize(start, accept);
}

std::string Nfa::ToString(const std::vector<double>* state_est) const {
  std::string out;
  for (size_t s = 0; s < states.size(); ++s) {
    if (s > 0) out += "\n";
    out += "state " + std::to_string(s);
    if (static_cast<int>(s) == start) out += " [start]";
    if (accept[s]) out += " [accept]";
    if (state_est != nullptr && s < state_est->size()) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " ~%.0f", (*state_est)[s]);
      out += buf;
    }
    for (const NfaTransition& tr : states[s]) {
      out += "\n  -" + tr.atom.ToString() + "-> " +
             std::to_string(tr.target);
    }
  }
  return out;
}

}  // namespace nepal::nql
