#include "views/footprint.h"

#include <algorithm>

namespace nepal::views {

namespace {

void AddClass(std::vector<const schema::ClassDef*>* classes,
              const schema::ClassDef* cls) {
  if (cls == nullptr) return;
  if (std::find(classes->begin(), classes->end(), cls) != classes->end()) {
    return;
  }
  classes->push_back(cls);
}

void CollectProgram(const nql::Program& program,
                    std::vector<const schema::ClassDef*>* classes) {
  for (const nql::Step& step : program) {
    switch (step.kind) {
      case nql::Step::Kind::kAtom:
        AddClass(classes, step.atom.cls);
        break;
      case nql::Step::Kind::kUnion:
        for (const nql::Program& branch : step.branches) {
          CollectProgram(branch, classes);
        }
        break;
      case nql::Step::Kind::kLoop:
        CollectProgram(step.body, classes);
        break;
    }
  }
}

/// First/last/emptiness analysis over the resolved RPE, driving the
/// implicit-element flags: which atom kinds can open or close a matching
/// fragment, and can the fragment consume zero atoms?
struct Ends {
  bool first_node = false, first_edge = false;
  bool last_node = false, last_edge = false;
  bool empty = false;
};

void Analyze(const nql::RpeNode& node, Ends* ends, bool* implicit_edges,
             bool* implicit_nodes) {
  switch (node.kind) {
    case nql::RpeNode::Kind::kAtom: {
      const bool edge = node.atom.cls != nullptr && node.atom.cls->is_edge();
      ends->first_node = ends->last_node = !edge;
      ends->first_edge = ends->last_edge = edge;
      ends->empty = false;
      return;
    }
    case nql::RpeNode::Kind::kAlt: {
      Ends acc;
      for (const nql::RpeNode& child : node.children) {
        Ends c;
        Analyze(child, &c, implicit_edges, implicit_nodes);
        acc.first_node |= c.first_node;
        acc.first_edge |= c.first_edge;
        acc.last_node |= c.last_node;
        acc.last_edge |= c.last_edge;
        acc.empty |= c.empty;
      }
      *ends = acc;
      return;
    }
    case nql::RpeNode::Kind::kSeq: {
      // Walk left to right, carrying the set of possible "open tail" kinds
      // across children (empty children are skipped transparently).
      Ends acc;
      acc.empty = true;
      for (const nql::RpeNode& child : node.children) {
        Ends c;
        Analyze(child, &c, implicit_edges, implicit_nodes);
        // Adjacency between the running tail and the child's head.
        if (acc.last_node && c.first_node) *implicit_edges = true;
        if (acc.last_edge && c.first_edge) *implicit_nodes = true;
        if (acc.empty) {
          acc.first_node |= c.first_node;
          acc.first_edge |= c.first_edge;
        }
        if (c.empty) {
          acc.last_node |= c.last_node;
          acc.last_edge |= c.last_edge;
        } else {
          acc.last_node = c.last_node;
          acc.last_edge = c.last_edge;
        }
        acc.empty &= c.empty;
      }
      *ends = acc;
      return;
    }
    case nql::RpeNode::Kind::kRep: {
      Ends body;
      if (!node.children.empty()) {
        Analyze(node.children[0], &body, implicit_edges, implicit_nodes);
      }
      if (node.max_rep >= 2) {
        // Iteration seam: the body's tail meets its own head.
        if (body.last_node && body.first_node) *implicit_edges = true;
        if (body.last_edge && body.first_edge) *implicit_nodes = true;
      }
      *ends = body;
      ends->empty = body.empty || node.min_rep == 0;
      return;
    }
  }
}

}  // namespace

bool ViewFootprint::Relevant(const schema::ClassDef* cls) const {
  if (cls == nullptr) return true;  // unknown class: stay conservative
  if (implicit_edges && cls->is_edge()) return true;
  if (implicit_nodes && cls->is_node()) return true;
  for (const schema::ClassDef* fc : classes) {
    // Both directions: an atom over an ancestor scans subclass rows, and a
    // write of an ancestor class lands in scans over any of its subtrees'
    // siblings only via the ancestor atom — covered by the first test.
    if (cls->IsSubclassOf(fc) || fc->IsSubclassOf(cls)) return true;
  }
  return false;
}

int ViewFootprint::radius() const {
  if (unbounded || max_atoms >= nql::kUnboundedRep / 2) {
    return nql::kUnboundedRep;
  }
  // A finalized path over A atoms holds at most 2*A + 1 elements once
  // implicit edges/nodes are filled in, so no two of its elements are more
  // than 2*A hops apart in the element graph.
  return 2 * max_atoms + 1;
}

std::string ViewFootprint::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < classes.size(); ++i) {
    if (i > 0) out += ", ";
    out += classes[i]->name();
  }
  out += "}";
  if (implicit_edges) out += " +implicit-edges";
  if (implicit_nodes) out += " +implicit-nodes";
  if (unbounded) {
    out += " r=inf";
  } else {
    out += " r=" + std::to_string(radius());
  }
  return out;
}

ViewFootprint CollectFootprint(const nql::MatchPlan& plan,
                               const nql::RpeNode& resolved_rpe) {
  ViewFootprint fp;
  for (const nql::AnchoredPlan& anchored : plan.anchors) {
    AddClass(&fp.classes, anchored.anchor.cls);
    CollectProgram(anchored.suffix, &fp.classes);
    CollectProgram(anchored.reversed_prefix, &fp.classes);
  }
  Ends ends;
  Analyze(resolved_rpe, &ends, &fp.implicit_edges, &fp.implicit_nodes);
  // Implicit endpoint nodes at the pathway boundaries.
  if (ends.first_edge || ends.last_edge) fp.implicit_nodes = true;
  fp.max_atoms = nql::MaxAtoms(resolved_rpe);
  fp.unbounded = fp.max_atoms >= nql::kUnboundedRep;
  return fp;
}

}  // namespace nepal::views
