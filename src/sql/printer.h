#ifndef PHOTON_SQL_PRINTER_H_
#define PHOTON_SQL_PRINTER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "plan/logical_plan.h"
#include "sql/catalog.h"

namespace photon {
namespace sql {

/// Renders a logical plan back to executable SQL (DESIGN.md §13.5). Every
/// leaf of the plan must be registered in `catalog` (the printed FROM
/// clauses reference leaves by catalog name). The output is designed to
/// round-trip: CompileSql(PlanToSql(p)) produces a plan with the same
/// PlanFingerprint as `p`, which is what differ mode 7 checks on every
/// fuzzed plan.
Result<std::string> PlanToSql(const plan::PlanPtr& plan,
                              const Catalog& catalog);

/// Canonical structural fingerprint of a plan, insensitive to the one
/// rewrite the SQL round trip may apply: a hash-join key pair and a
/// residual equality conjunct are interchangeable forms of the same join
/// condition, so join conditions are fingerprinted as a unified conjunct
/// list. Column identity is positional; names are ignored. Scan leaves
/// fingerprint by Table* / node identity, so two plans compare equal only
/// when they read the same data.
std::string PlanFingerprint(const plan::PlanPtr& plan);

}  // namespace sql
}  // namespace photon

#endif  // PHOTON_SQL_PRINTER_H_
