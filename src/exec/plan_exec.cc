#include "exec/plan_exec.h"

#include <map>
#include <set>

#include "exec/iterators.h"
#include "relational/rel_args.h"

namespace volcano::exec {

namespace {

/// The stored table a FILE_SCAN node reads.
const Table& ScannedTable(const PlanNode& scan, const Database& db) {
  const auto& arg = static_cast<const rel::GetArg&>(*scan.arg());
  const Table* table = db.Find(arg.relation());
  VOLCANO_CHECK(table != nullptr);
  return *table;
}

}  // namespace

IteratorPtr BuildIterator(const PlanNode& plan, const rel::RelModel& model,
                          const Database& db) {
  const rel::RelOps& ops = model.ops();
  OperatorId op = plan.op();

  if (op == ops.file_scan) {
    return std::make_unique<ScanIterator>(ScannedTable(plan, db));
  }
  if (op == ops.filter) {
    const auto& arg = static_cast<const rel::SelectArg&>(*plan.arg());
    // A chain of filters over a stored table becomes one fused scan. The
    // walk sees through EXCHANGE, which forwards its stream unchanged.
    const PlanNode* base = &plan;
    while (base->op() == ops.filter || base->op() == ops.exchange) {
      base = base->input(0).get();
    }
    if (base->op() != ops.file_scan) {
      return std::make_unique<FilterIterator>(
          BuildIterator(*plan.input(0), model, db), arg);
    }
    auto scan = std::make_unique<ScanIterator>(ScannedTable(*base, db));
    for (const PlanNode* node = &plan; node != base;
         node = node->input(0).get()) {
      if (node->op() == ops.filter) {
        scan->AddSelection(static_cast<const rel::SelectArg&>(*node->arg()));
      }
    }
    return scan;
  }
  if (op == ops.sort) {
    const auto& arg = static_cast<const rel::SortArg&>(*plan.arg());
    return std::make_unique<SortIterator>(
        BuildIterator(*plan.input(0), model, db), arg.order().attrs);
  }
  if (op == ops.merge_join) {
    const auto& arg = static_cast<const rel::JoinArg&>(*plan.arg());
    return std::make_unique<MergeJoinIterator>(
        BuildIterator(*plan.input(0), model, db),
        BuildIterator(*plan.input(1), model, db), arg.left_attr(),
        arg.right_attr());
  }
  if (op == ops.hash_join || op == ops.parallel_hash_join) {
    // PARALLEL_HASH_JOIN is simulated single-threaded: the cost model
    // captures the parallel speedup, the result is identical by definition
    // (hash partitioning is a disjoint cover of the inputs).
    const auto& arg = static_cast<const rel::JoinArg&>(*plan.arg());
    return std::make_unique<HashJoinIterator>(
        BuildIterator(*plan.input(0), model, db),
        BuildIterator(*plan.input(1), model, db), arg.left_attr(),
        arg.right_attr());
  }
  if (op == ops.sort_dedup) {
    const auto& arg = static_cast<const rel::SortArg&>(*plan.arg());
    return std::make_unique<SortDedupIterator>(
        BuildIterator(*plan.input(0), model, db), arg.order().attrs);
  }
  if (op == ops.hash_dedup) {
    return std::make_unique<HashDedupIterator>(
        BuildIterator(*plan.input(0), model, db));
  }
  if (op == ops.exchange) {
    // Simulated exchange: partitioning is a planning-time property; a
    // single-process run forwards the stream unchanged.
    return BuildIterator(*plan.input(0), model, db);
  }
  if (op == ops.multi_hash_join) {
    const auto& arg = static_cast<const rel::MultiJoinArg&>(*plan.arg());
    return std::make_unique<MultiHashJoinIterator>(
        BuildIterator(*plan.input(0), model, db),
        BuildIterator(*plan.input(1), model, db),
        BuildIterator(*plan.input(2), model, db), arg);
  }
  if (op == ops.concat) {
    return std::make_unique<ConcatIterator>(
        BuildIterator(*plan.input(0), model, db),
        BuildIterator(*plan.input(1), model, db));
  }
  if (op == ops.hash_aggregate) {
    const auto& arg = static_cast<const rel::AggArg&>(*plan.arg());
    return std::make_unique<HashAggIterator>(
        BuildIterator(*plan.input(0), model, db), arg.group_attr(),
        arg.count_attr());
  }
  if (op == ops.sort_aggregate) {
    const auto& arg = static_cast<const rel::AggArg&>(*plan.arg());
    return std::make_unique<SortAggIterator>(
        BuildIterator(*plan.input(0), model, db), arg.group_attr(),
        arg.count_attr());
  }
  if (op == ops.project_op) {
    const auto& arg = static_cast<const rel::ProjectArg&>(*plan.arg());
    return std::make_unique<ProjectIterator>(
        BuildIterator(*plan.input(0), model, db), arg.attrs());
  }
  if (op == ops.merge_intersect) {
    // The inputs were optimized for one of the alternative sort orders; the
    // iterator must compare columns in the same order the plan chose.
    const auto& lorder = rel::AsRel(*plan.input(0)->props()).order().attrs;
    const auto& rorder = rel::AsRel(*plan.input(1)->props()).order().attrs;
    return std::make_unique<MergeIntersectIterator>(
        BuildIterator(*plan.input(0), model, db),
        BuildIterator(*plan.input(1), model, db), lorder, rorder);
  }
  if (op == ops.hash_intersect) {
    return std::make_unique<HashIntersectIterator>(
        BuildIterator(*plan.input(0), model, db),
        BuildIterator(*plan.input(1), model, db));
  }
  if (op == ops.hash_left_outer_join) {
    const auto& arg = static_cast<const rel::JoinArg&>(*plan.arg());
    return std::make_unique<HashLeftOuterJoinIterator>(
        BuildIterator(*plan.input(0), model, db),
        BuildIterator(*plan.input(1), model, db), arg.left_attr(),
        arg.right_attr());
  }
  if (op == ops.hash_semijoin) {
    const auto& arg = static_cast<const rel::JoinArg&>(*plan.arg());
    return std::make_unique<HashSemiJoinIterator>(
        BuildIterator(*plan.input(0), model, db),
        BuildIterator(*plan.input(1), model, db), arg.left_attr(),
        arg.right_attr());
  }
  if (op == ops.hash_antijoin) {
    const auto& arg = static_cast<const rel::JoinArg&>(*plan.arg());
    return std::make_unique<HashAntiJoinIterator>(
        BuildIterator(*plan.input(0), model, db),
        BuildIterator(*plan.input(1), model, db), arg.left_attr(),
        arg.right_attr());
  }
  if (op == ops.hash_distinct) {
    return std::make_unique<HashDedupIterator>(
        BuildIterator(*plan.input(0), model, db));
  }
  if (op == ops.sort_distinct) {
    const auto& arg = static_cast<const rel::SortArg&>(*plan.arg());
    return std::make_unique<SortDedupIterator>(
        BuildIterator(*plan.input(0), model, db), arg.order().attrs);
  }
  if (op == ops.nested_subq) {
    const auto& arg = static_cast<const rel::SubqueryArg&>(*plan.arg());
    return std::make_unique<NestedSubqIterator>(
        BuildIterator(*plan.input(0), model, db),
        BuildIterator(*plan.input(1), model, db), arg);
  }
  VOLCANO_CHECK(false && "unknown physical operator");
  return nullptr;
}

std::vector<Row> ExecutePlan(const PlanNode& plan, const rel::RelModel& model,
                             const Database& db) {
  IteratorPtr it = BuildIterator(plan, model, db);
  return Drain(*it);
}

Schema PlanSchema(const PlanNode& plan, const rel::RelModel& model,
                  const Database& db) {
  return BuildIterator(plan, model, db)->schema();
}

namespace {

struct Evaluated {
  Schema schema;
  std::vector<Row> rows;
};

Evaluated Eval(const Expr& expr, const rel::RelModel& model,
               const Database& db) {
  const rel::RelOps& ops = model.ops();
  OperatorId op = expr.op();

  if (op == ops.get) {
    const auto& arg = static_cast<const rel::GetArg&>(*expr.arg());
    const Table* table = db.Find(arg.relation());
    VOLCANO_CHECK(table != nullptr);
    return {table->schema, CopyRows(*table)};
  }
  if (op == ops.select) {
    const auto& arg = static_cast<const rel::SelectArg&>(*expr.arg());
    Evaluated in = Eval(*expr.input(0), model, db);
    int col = in.schema.IndexOf(arg.attr());
    VOLCANO_CHECK(col >= 0);
    Evaluated out{in.schema, {}};
    for (auto& row : in.rows) {
      // Predicates on NULL are unknown, never true.
      if (row[col] != kNull && arg.Eval(row[col])) {
        out.rows.push_back(std::move(row));
      }
    }
    return out;
  }
  if (op == ops.join) {
    const auto& arg = static_cast<const rel::JoinArg&>(*expr.arg());
    Evaluated l = Eval(*expr.input(0), model, db);
    Evaluated r = Eval(*expr.input(1), model, db);
    int lc = l.schema.IndexOf(arg.left_attr());
    int rc = r.schema.IndexOf(arg.right_attr());
    VOLCANO_CHECK(lc >= 0 && rc >= 0);
    Evaluated out{Schema::Concat(l.schema, r.schema), {}};
    for (const Row& a : l.rows) {
      if (a[lc] == kNull) continue;  // NULL keys never join
      for (const Row& b : r.rows) {
        if (a[lc] == b[rc]) {
          Row row = a;
          row.insert(row.end(), b.begin(), b.end());
          out.rows.push_back(std::move(row));
        }
      }
    }
    return out;
  }
  if (op == ops.left_outer_join) {
    const auto& arg = static_cast<const rel::JoinArg&>(*expr.arg());
    Evaluated l = Eval(*expr.input(0), model, db);
    Evaluated r = Eval(*expr.input(1), model, db);
    int lc = l.schema.IndexOf(arg.left_attr());
    int rc = r.schema.IndexOf(arg.right_attr());
    VOLCANO_CHECK(lc >= 0 && rc >= 0);
    Evaluated out{Schema::Concat(l.schema, r.schema), {}};
    for (const Row& a : l.rows) {
      bool matched = false;
      if (a[lc] != kNull) {
        for (const Row& b : r.rows) {
          if (a[lc] == b[rc]) {
            Row row = a;
            row.insert(row.end(), b.begin(), b.end());
            out.rows.push_back(std::move(row));
            matched = true;
          }
        }
      }
      if (!matched) {
        Row row = a;
        row.insert(row.end(), r.schema.size(), kNull);
        out.rows.push_back(std::move(row));
      }
    }
    return out;
  }
  if (op == ops.semijoin || op == ops.antijoin) {
    const auto& arg = static_cast<const rel::JoinArg&>(*expr.arg());
    Evaluated l = Eval(*expr.input(0), model, db);
    Evaluated r = Eval(*expr.input(1), model, db);
    int lc = l.schema.IndexOf(arg.left_attr());
    int rc = r.schema.IndexOf(arg.right_attr());
    VOLCANO_CHECK(lc >= 0 && rc >= 0);
    bool want_match = op == ops.semijoin;
    Evaluated out{l.schema, {}};
    for (auto& a : l.rows) {
      bool matched = false;
      if (a[lc] != kNull) {
        for (const Row& b : r.rows) {
          if (a[lc] == b[rc]) {
            matched = true;
            break;
          }
        }
      }
      if (matched == want_match) out.rows.push_back(std::move(a));
    }
    return out;
  }
  if (op == ops.distinct) {
    Evaluated in = Eval(*expr.input(0), model, db);
    std::set<Row> seen;
    Evaluated out{in.schema, {}};
    for (auto& row : in.rows) {
      if (seen.insert(row).second) out.rows.push_back(std::move(row));
    }
    return out;
  }
  if (op == ops.subquery) {
    const auto& arg = static_cast<const rel::SubqueryArg&>(*expr.arg());
    Evaluated l = Eval(*expr.input(0), model, db);
    Evaluated r = Eval(*expr.input(1), model, db);
    int lc = l.schema.IndexOf(arg.outer_attr());
    int rc = r.schema.IndexOf(arg.inner_attr());
    VOLCANO_CHECK(lc >= 0 && rc >= 0);
    Evaluated out{l.schema, {}};
    for (auto& a : l.rows) {
      bool matched = false;
      if (a[lc] != kNull) {
        for (const Row& b : r.rows) {
          if (a[lc] == b[rc]) {
            matched = true;
            break;
          }
        }
      }
      if (matched != arg.negated()) out.rows.push_back(std::move(a));
    }
    return out;
  }
  if (op == ops.project) {
    const auto& arg = static_cast<const rel::ProjectArg&>(*expr.arg());
    Evaluated in = Eval(*expr.input(0), model, db);
    std::vector<int> cols;
    for (Symbol a : arg.attrs()) {
      int c = in.schema.IndexOf(a);
      VOLCANO_CHECK(c >= 0);
      cols.push_back(c);
    }
    Evaluated out{Schema(arg.attrs()), {}};
    for (const Row& row : in.rows) {
      Row r;
      r.reserve(cols.size());
      for (int c : cols) r.push_back(row[c]);
      out.rows.push_back(std::move(r));
    }
    return out;
  }
  if (op == ops.union_all) {
    Evaluated l = Eval(*expr.input(0), model, db);
    Evaluated r = Eval(*expr.input(1), model, db);
    VOLCANO_CHECK(l.schema.size() == r.schema.size());
    Evaluated out{l.schema, std::move(l.rows)};
    out.rows.insert(out.rows.end(), r.rows.begin(), r.rows.end());
    return out;
  }
  if (op == ops.aggregate) {
    const auto& arg = static_cast<const rel::AggArg&>(*expr.arg());
    Evaluated in = Eval(*expr.input(0), model, db);
    int col = in.schema.IndexOf(arg.group_attr());
    VOLCANO_CHECK(col >= 0);
    std::map<int64_t, int64_t> counts;
    for (const Row& row : in.rows) ++counts[row[col]];
    Evaluated out{Schema({arg.group_attr(), arg.count_attr()}), {}};
    for (const auto& kv : counts) {
      out.rows.push_back(Row{kv.first, kv.second});
    }
    return out;
  }
  if (op == ops.intersect) {
    Evaluated l = Eval(*expr.input(0), model, db);
    Evaluated r = Eval(*expr.input(1), model, db);
    VOLCANO_CHECK(l.schema.size() == r.schema.size());
    std::set<Row> rset(r.rows.begin(), r.rows.end());
    std::set<Row> emitted;
    Evaluated out{l.schema, {}};
    for (const Row& row : l.rows) {
      if (rset.count(row) != 0 && emitted.insert(row).second) {
        out.rows.push_back(row);
      }
    }
    return out;
  }
  VOLCANO_CHECK(false && "unknown logical operator");
  return {};
}

}  // namespace

std::vector<Row> EvalLogical(const Expr& expr, const rel::RelModel& model,
                             const Database& db) {
  return Eval(expr, model, db).rows;
}

Schema LogicalSchema(const Expr& expr, const rel::RelModel& model,
                     const Database& db) {
  return Eval(expr, model, db).schema;
}

std::vector<Row> ReorderToSchema(const std::vector<Row>& rows,
                                 const Schema& from, const Schema& to) {
  VOLCANO_CHECK(from.size() == to.size());
  std::vector<int> map;
  map.reserve(to.size());
  for (size_t i = 0; i < to.size(); ++i) {
    int c = from.IndexOf(to.at(i));
    VOLCANO_CHECK(c >= 0);
    map.push_back(c);
  }
  std::vector<Row> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    Row r;
    r.reserve(map.size());
    for (int c : map) r.push_back(row[c]);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace volcano::exec
