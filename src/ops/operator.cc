#include "ops/operator.h"

#include "vector/table.h"

namespace photon {

Result<Table> CollectAll(Operator* root, QueryControl* control) {
  PHOTON_RETURN_NOT_OK(root->Open());
  Table out(root->output_schema());
  while (true) {
    if (control != nullptr) {
      Status alive = control->Check();
      if (!alive.ok()) {
        // Unwind through Close so operators cancel prefetches, drop pins,
        // and release reservations exactly as on any other error.
        root->Close();
        return alive;
      }
    }
    PHOTON_ASSIGN_OR_RETURN(ColumnBatch * batch, root->GetNext());
    if (batch == nullptr) break;
    out.AppendBatch(CompactBatch(*batch));
  }
  root->Close();
  PublishTreeMetrics(root);
  return out;
}

void PublishTreeMetrics(Operator* root) {
  root->PublishMetrics();
  for (Operator* child : root->children()) {
    PublishTreeMetrics(child);
  }
}

void CollectTreeMetrics(Operator* root, obs::MetricSnapshot* out) {
  root->PublishMetrics();
  out->MergeResourceFrom(root->op_metrics());
  for (Operator* child : root->children()) {
    CollectTreeMetrics(child, out);
  }
}

}  // namespace photon
