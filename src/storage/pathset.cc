#include "storage/pathset.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace nepal::storage {

bool FieldCondition::Eval(const ElementVersion& v) const {
  int cmp;
  if (field_index < 0) {
    // `id` pseudo-field.
    int64_t uid = static_cast<int64_t>(v.uid);
    cmp = Value(uid).Compare(value);
  } else {
    const Value* field = &v.fields[static_cast<size_t>(field_index)];
    // Structured-data access: walk composite members / map keys.
    for (const std::string& key : subpath) {
      if (field->kind() != ValueKind::kMap) return false;
      const ValueMap& map = field->AsMap();
      auto it = map.find(key);
      if (it == map.end()) return false;
      field = &it->second;
    }
    if (field->is_null()) return false;  // null satisfies no comparison
    cmp = field->Compare(value);
  }
  switch (op) {
    case Op::kEq:
      return cmp == 0;
    case Op::kNe:
      return cmp != 0;
    case Op::kLt:
      return cmp < 0;
    case Op::kLe:
      return cmp <= 0;
    case Op::kGt:
      return cmp > 0;
    case Op::kGe:
      return cmp >= 0;
  }
  return false;
}

std::string FieldCondition::ToString() const {
  const char* op_str = "=";
  switch (op) {
    case Op::kEq:
      op_str = "=";
      break;
    case Op::kNe:
      op_str = "<>";
      break;
    case Op::kLt:
      op_str = "<";
      break;
    case Op::kLe:
      op_str = "<=";
      break;
    case Op::kGt:
      op_str = ">";
      break;
    case Op::kGe:
      op_str = ">=";
      break;
  }
  std::string path = field_index < 0 ? std::string("id") : field_name;
  for (const std::string& key : subpath) path += "." + key;
  return path + op_str + value.ToString();
}

bool CompiledAtom::Matches(const ElementVersion& v) const {
  if (!v.cls->IsSubclassOf(cls)) return false;
  for (const FieldCondition& cond : conditions) {
    if (!cond.Eval(v)) return false;
  }
  return true;
}

ScanSpec CompiledAtom::ToScanSpec() const {
  ScanSpec spec;
  spec.cls = cls;
  std::vector<FieldCondition> residual;
  auto pushable_eq = [](const FieldCondition& cond) {
    return cond.op == FieldCondition::Op::kEq && cond.field_index >= 0 &&
           cond.subpath.empty();
  };
  // The optimizer may have chosen which equality to push (the most
  // selective one); otherwise the first pushable equality wins.
  const FieldCondition* chosen = nullptr;
  if (pushdown_condition >= 0 &&
      static_cast<size_t>(pushdown_condition) < conditions.size() &&
      pushable_eq(conditions[static_cast<size_t>(pushdown_condition)])) {
    chosen = &conditions[static_cast<size_t>(pushdown_condition)];
  }
  for (const FieldCondition& cond : conditions) {
    if (cond.op == FieldCondition::Op::kEq && cond.field_index < 0 &&
        !spec.uid && cond.value.kind() == ValueKind::kInt &&
        cond.value.AsInt() >= 0) {
      spec.uid = static_cast<Uid>(cond.value.AsInt());
      continue;
    }
    if (pushable_eq(cond) && !spec.eq &&
        (chosen == nullptr || chosen == &cond)) {
      spec.eq = std::make_pair(cond.field_index, cond.value);
      continue;
    }
    residual.push_back(cond);
  }
  if (!residual.empty()) {
    spec.filter = [residual](const ElementVersion& v) {
      for (const FieldCondition& cond : residual) {
        if (!cond.Eval(v)) return false;
      }
      return true;
    };
  }
  return spec;
}

std::string CompiledAtom::ToString() const {
  std::string out = cls->name() + "(";
  for (size_t i = 0; i < conditions.size(); ++i) {
    if (i > 0) out += ", ";
    out += conditions[i].ToString();
  }
  out += ")";
  return out;
}

PathState PathState::Reversed() const {
  PathState rev;
  rev.uids.assign(uids.rbegin(), uids.rend());
  rev.concepts.assign(concepts.rbegin(), concepts.rend());
  rev.valid = valid;
  rev.frontier = head_frontier;
  rev.frontier_in_path = head_in_path;
  rev.head_frontier = frontier;
  rev.head_in_path = frontier_in_path;
  return rev;
}

std::string PathState::DedupKey() const {
  std::string key;
  key.reserve(uids.size() * 8 + 24);
  auto put = [&key](uint64_t v) {
    key.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  for (Uid u : uids) put(u);
  put(frontier);
  put(static_cast<uint64_t>(frontier_in_path));
  put(static_cast<uint64_t>(valid.start));
  put(static_cast<uint64_t>(valid.end));
  return key;
}

std::string PathState::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < uids.size(); ++i) {
    if (i > 0) out += ", ";
    out += concepts[i]->name() + "#" + std::to_string(uids[i]);
  }
  out += "]";
  if (!frontier_in_path && frontier != kInvalidUid) {
    out += "~>" + std::to_string(frontier);
  }
  return out;
}

void DedupPaths(PathSet* paths) {
  std::unordered_set<std::string> seen;
  seen.reserve(paths->size());
  PathSet out;
  out.reserve(paths->size());
  for (PathState& state : *paths) {
    if (seen.insert(state.DedupKey()).second) {
      out.push_back(std::move(state));
    }
  }
  *paths = std::move(out);
}

void CanonicalizePaths(PathSet* paths) {
  std::vector<std::pair<std::string, size_t>> keys;
  keys.reserve(paths->size());
  for (size_t i = 0; i < paths->size(); ++i) {
    keys.emplace_back((*paths)[i].DedupKey(), i);
  }
  std::sort(keys.begin(), keys.end());
  PathSet out;
  out.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0 && keys[i].first == keys[i - 1].first) continue;
    out.push_back(std::move((*paths)[keys[i].second]));
  }
  *paths = std::move(out);
}

PathSet PathOperatorExecutor::ExtendBlock(
    const PathSet& frontier, const std::vector<CompiledAtom>& alternatives,
    int min_rep, int max_rep, Direction dir, const TimeView& view) {
  PathSet collected;
  PathSet current = frontier;
  if (min_rep == 0) {
    collected.insert(collected.end(), current.begin(), current.end());
  }
  for (int k = 1; k <= max_rep && !current.empty(); ++k) {
    PathSet next;
    for (const CompiledAtom& atom : alternatives) {
      PathSet branch = ExtendAtom(current, atom, dir, view);
      next.insert(next.end(), branch.begin(), branch.end());
    }
    DedupPaths(&next);
    current = std::move(next);
    if (k >= min_rep) {
      collected.insert(collected.end(), current.begin(), current.end());
    }
  }
  DedupPaths(&collected);
  return collected;
}

}  // namespace nepal::storage
