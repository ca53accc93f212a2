#include "exec/datagen.h"

#include <algorithm>
#include <vector>

#include "support/rng.h"

namespace volcano::exec {

Table GenerateTable(const rel::RelationInfo& info, uint64_t seed) {
  Rng rng(seed ^ (uint64_t{info.name.id()} << 32));
  Table t;
  std::vector<Symbol> attrs;
  attrs.reserve(info.attributes.size());
  for (const auto& a : info.attributes) attrs.push_back(a.name);
  t.schema = Schema(std::move(attrs));

  // Values are drawn row by row, attribute by attribute; a relation with a
  // stored sort order draws into a scratch buffer and is laid out once in
  // sorted order. Either way the rows land in one allocation.
  auto n = static_cast<size_t>(info.cardinality);
  RowBuffer drawn;
  RowBuffer& out = info.sorted_on.empty() ? t.rows : drawn;
  out.Reset(t.schema.size());
  out.Reserve(n);
  std::vector<int64_t> row(t.schema.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < row.size(); ++c) {
      auto domain = static_cast<uint64_t>(
          std::max(1.0, info.attributes[c].distinct_values));
      row[c] = static_cast<int64_t>(rng.Uniform(domain));
    }
    out.Append(row.data());
  }
  if (info.sorted_on.empty()) return t;

  std::vector<int> cols;
  for (Symbol attr : info.sorted_on) {
    int c = t.schema.IndexOf(attr);
    VOLCANO_CHECK(c >= 0);
    cols.push_back(c);
  }
  VOLCANO_CHECK(n <= UINT32_MAX);
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  std::sort(perm.begin(), perm.end(), [&](uint32_t x, uint32_t y) {
    const int64_t* a = drawn.row(x);
    const int64_t* b = drawn.row(y);
    for (int c : cols) {
      if (a[c] != b[c]) return a[c] < b[c];
    }
    return false;
  });
  t.rows.Reset(t.schema.size());
  t.rows.Reserve(n);
  for (uint32_t i : perm) t.rows.Append(drawn.row(i));
  return t;
}

Database GenerateDatabase(const rel::Catalog& catalog, uint64_t seed) {
  Database db;
  for (Symbol name : catalog.RelationNames()) {
    const rel::RelationInfo* info = catalog.FindRelation(name);
    db.Put(name, GenerateTable(*info, seed));
  }
  return db;
}

}  // namespace volcano::exec
