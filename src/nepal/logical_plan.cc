#include "nepal/logical_plan.h"

namespace nepal::nql {

namespace {

LogicalNode BuildNode(const RpeNode& rpe) {
  LogicalNode node;
  switch (rpe.kind) {
    case RpeNode::Kind::kAtom:
      node.kind = LogicalNode::Kind::kAtom;
      node.atom = rpe.atom;
      break;
    case RpeNode::Kind::kSeq:
      node.kind = LogicalNode::Kind::kSeq;
      break;
    case RpeNode::Kind::kAlt:
      node.kind = LogicalNode::Kind::kAlt;
      break;
    case RpeNode::Kind::kRep:
      node.kind = LogicalNode::Kind::kRep;
      node.min_rep = rpe.min_rep;
      node.max_rep = rpe.max_rep;
      break;
  }
  for (const RpeNode& child : rpe.children) {
    node.children.push_back(BuildNode(child));
  }
  return node;
}

}  // namespace

LogicalPlan BuildLogicalPlan(const RpeNode& resolved) {
  LogicalPlan plan;
  plan.root = BuildNode(resolved);
  return plan;
}

std::string LogicalNode::ToString() const {
  std::string out;
  switch (kind) {
    case Kind::kAtom:
      out = atom.ToString();
      break;
    case Kind::kSeq: {
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += "->";
        out += children[i].ToString();
      }
      break;
    }
    case Kind::kAlt: {
      out = "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += "|";
        out += children[i].ToString();
      }
      out += ")";
      break;
    }
    case Kind::kRep:
      out = "[" + children[0].ToString() + "]" + RepSuffix(min_rep, max_rep);
      break;
  }
  if (pruned) out += "[pruned]";
  return out;
}

}  // namespace nepal::nql
