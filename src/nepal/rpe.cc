#include "nepal/rpe.h"

#include <algorithm>

namespace nepal::nql {

namespace {

// Saturating arithmetic over non-negative atom counts: anything that would
// exceed kUnboundedRep clamps to it, so nested large repetitions (e.g.
// [[r]{32,32}]{32,32}...) never overflow int, and kUnboundedRep is absorbing.
int SatAdd(int a, int b) {
  if (a > kUnboundedRep - b) return kUnboundedRep;
  return a + b;
}

int SatMul(int a, int b) {
  if (a == 0 || b == 0) return 0;
  if (a > kUnboundedRep / b) return kUnboundedRep;
  return a * b;
}

}  // namespace

std::string RepSuffix(int min_rep, int max_rep) {
  if (max_rep == kUnboundedRep) {
    if (min_rep == 0) return "*";
    if (min_rep == 1) return "+";
    return "{" + std::to_string(min_rep) + ",}";
  }
  return "{" + std::to_string(min_rep) + "," + std::to_string(max_rep) + "}";
}

std::string RpeNode::ToString() const {
  switch (kind) {
    case Kind::kAtom: {
      std::string out = class_name + "(";
      for (size_t i = 0; i < raw_conditions.size(); ++i) {
        if (i > 0) out += ", ";
        storage::FieldCondition fc;
        fc.field_name = raw_conditions[i].field;
        fc.field_index = raw_conditions[i].field == "id" ? -1 : 0;
        fc.op = raw_conditions[i].op;
        fc.value = raw_conditions[i].value;
        out += fc.ToString();
      }
      return out + ")";
    }
    case Kind::kSeq: {
      std::string out;
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += "->";
        bool paren = children[i].kind == Kind::kAlt;
        if (paren) out += "(";
        out += children[i].ToString();
        if (paren) out += ")";
      }
      return out;
    }
    case Kind::kAlt: {
      std::string out;
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += "|";
        out += children[i].ToString();
      }
      return out;
    }
    case Kind::kRep:
      return "[" + children[0].ToString() + "]" + RepSuffix(min_rep, max_rep);
  }
  return "?";
}

RpeNode Normalize(RpeNode node) {
  if (node.kind == RpeNode::Kind::kAtom) return node;
  for (RpeNode& child : node.children) child = Normalize(std::move(child));
  if (node.kind == RpeNode::Kind::kRep) {
    // [r]{1,1} is just r.
    if (node.min_rep == 1 && node.max_rep == 1) {
      return std::move(node.children[0]);
    }
    return node;
  }
  // Flatten same-kind children (Seq in Seq, Alt in Alt) and collapse
  // single-child containers.
  std::vector<RpeNode> flat;
  for (RpeNode& child : node.children) {
    if (child.kind == node.kind) {
      for (RpeNode& grandchild : child.children) {
        flat.push_back(std::move(grandchild));
      }
    } else {
      flat.push_back(std::move(child));
    }
  }
  if (flat.size() == 1) return std::move(flat[0]);
  node.children = std::move(flat);
  return node;
}

int MinAtoms(const RpeNode& node) {
  switch (node.kind) {
    case RpeNode::Kind::kAtom:
      return 1;
    case RpeNode::Kind::kSeq: {
      int total = 0;
      for (const RpeNode& child : node.children) {
        total = SatAdd(total, MinAtoms(child));
      }
      return total;
    }
    case RpeNode::Kind::kAlt: {
      int best = MinAtoms(node.children[0]);
      for (const RpeNode& child : node.children) {
        best = std::min(best, MinAtoms(child));
      }
      return best;
    }
    case RpeNode::Kind::kRep:
      return SatMul(node.min_rep, MinAtoms(node.children[0]));
  }
  return 0;
}

int MaxAtoms(const RpeNode& node) {
  switch (node.kind) {
    case RpeNode::Kind::kAtom:
      return 1;
    case RpeNode::Kind::kSeq: {
      int total = 0;
      for (const RpeNode& child : node.children) {
        total = SatAdd(total, MaxAtoms(child));
      }
      return total;
    }
    case RpeNode::Kind::kAlt: {
      int best = 0;
      for (const RpeNode& child : node.children) {
        best = std::max(best, MaxAtoms(child));
      }
      return best;
    }
    case RpeNode::Kind::kRep:
      return SatMul(node.max_rep, MaxAtoms(node.children[0]));
  }
  return 0;
}

Status ResolveRpe(const schema::Schema& schema, int max_repetition,
                  RpeNode* node) {
  switch (node->kind) {
    case RpeNode::Kind::kAtom: {
      NEPAL_ASSIGN_OR_RETURN(const schema::ClassDef* cls,
                             schema.GetClass(node->class_name));
      node->atom.cls = cls;
      node->atom.conditions.clear();
      for (const RawCondition& raw : node->raw_conditions) {
        storage::FieldCondition cond;
        cond.field_name = raw.field;
        cond.op = raw.op;
        cond.value = raw.value;
        if (raw.field == "id") {
          cond.field_index = -1;
          if (!raw.subpath.empty()) {
            return Status::InvalidArgument(
                "atom " + node->class_name +
                ": the id pseudo-field has no members");
          }
          if (raw.value.kind() != ValueKind::kInt) {
            return Status::InvalidArgument(
                "atom " + node->class_name +
                ": the id pseudo-field compares against integers, got " +
                raw.value.ToString());
          }
        } else {
          int idx = cls->FieldIndex(raw.field);
          if (idx < 0) {
            return Status::InvalidArgument("atom " + node->class_name +
                                           ": class " + cls->name() +
                                           " has no field '" + raw.field +
                                           "' (atoms are strongly typed)");
          }
          cond.field_index = idx;
          cond.subpath = raw.subpath;
          schema::TypeRef type = cls->fields()[static_cast<size_t>(idx)].type;
          // Dotted paths dig through map keys and composite members.
          for (const std::string& key : raw.subpath) {
            if (type.container == schema::ContainerKind::kMap) {
              type.container = schema::ContainerKind::kNone;
              continue;  // any key yields the map's element type
            }
            if (type.container == schema::ContainerKind::kNone &&
                type.is_composite()) {
              const schema::DataTypeDef* dt =
                  schema.FindDataType(type.data_type);
              const schema::FieldDef* member = nullptr;
              for (const schema::FieldDef& f : dt->fields) {
                if (f.name == key) member = &f;
              }
              if (member == nullptr) {
                return Status::InvalidArgument(
                    "atom " + node->class_name + ": data type " + dt->name +
                    " has no member '" + key + "'");
              }
              type = member->type;
              continue;
            }
            return Status::Unsupported(
                "atom " + node->class_name + ": '" + raw.field + "." + key +
                "' — only map keys and data-type members are addressable in "
                "predicates");
          }
          if (type.container != schema::ContainerKind::kNone ||
              type.is_composite()) {
            return Status::Unsupported(
                "atom " + node->class_name + ": predicates on list/set or "
                "whole composite field '" + raw.field +
                "' are not yet supported (address a member with a dotted "
                "path)");
          }
          // Literal type agreement: numerics mix, everything else must match.
          ValueKind declared = type.primitive;
          ValueKind literal = raw.value.kind();
          if (declared == ValueKind::kIp && literal == ValueKind::kString) {
            // IP fields accept dotted-quad string literals.
            NEPAL_ASSIGN_OR_RETURN(cond.value,
                                   Value::ParseIp(raw.value.AsString()));
            literal = ValueKind::kIp;
          }
          bool numeric_ok =
              (declared == ValueKind::kInt || declared == ValueKind::kDouble) &&
              (literal == ValueKind::kInt || literal == ValueKind::kDouble);
          if (!numeric_ok && declared != literal) {
            return Status::InvalidArgument(
                "atom " + node->class_name + ": field '" + raw.field +
                "' has type " + std::string(ValueKindToString(declared)) +
                " but the literal is " + ValueKindToString(literal));
          }
        }
        node->atom.conditions.push_back(std::move(cond));
      }
      return Status::OK();
    }
    case RpeNode::Kind::kSeq:
    case RpeNode::Kind::kAlt:
      for (RpeNode& child : node->children) {
        NEPAL_RETURN_NOT_OK(ResolveRpe(schema, max_repetition, &child));
      }
      return Status::OK();
    case RpeNode::Kind::kRep:
      if (node->min_rep < 0 || node->max_rep < node->min_rep) {
        return Status::InvalidArgument(
            "repetition bounds {" + std::to_string(node->min_rep) + "," +
            std::to_string(node->max_rep) + "} are malformed");
      }
      // An open maximum is exempt from the static length limit: an open
      // Loop ends at its first empty round (paths are simple, so its
      // rounds end whatever the expression). The minimum is not: every
      // match runs at least that many rounds.
      if (const int bound = node->max_rep == kUnboundedRep ? node->min_rep
                                                           : node->max_rep;
          bound > max_repetition) {
        return Status::PlanError(
            "repetition bound " + std::to_string(bound) +
            " exceeds the length limit (" + std::to_string(max_repetition) +
            "); RPEs must be length-limited");
      }
      return ResolveRpe(schema, max_repetition, &node->children[0]);
  }
  return Status::Internal("unknown RPE node kind");
}

}  // namespace nepal::nql
