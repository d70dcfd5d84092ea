#include "ops/fused_filter_project.h"

#include <cstring>

namespace photon {

Result<ColumnBatch*> FusedFilterProjectOperator::GetNextImpl() {
  while (true) {
    ctx_.ResetPerBatch();  // invalidates the previously returned view
    PHOTON_ASSIGN_OR_RETURN(ColumnBatch * in, child_->GetNext());
    if (in == nullptr) return nullptr;

    PHOTON_ASSIGN_OR_RETURN(int active, state_.Eval(in, &ctx_));
    if (unit_->has_predicates() && active == 0) continue;
    if (!unit_->has_projection()) return in;

    if (view_ == nullptr || view_->capacity() < in->capacity()) {
      view_ = ColumnBatch::MakeView(output_schema_, in->capacity());
    }
    for (size_t i = 0; i < unit_->outputs().size(); i++) {
      view_->SetColumnView(static_cast<int>(i), state_.Output(i, in));
    }
    view_->set_num_rows(in->num_rows());
    if (in->all_active()) {
      view_->SetAllActive();
    } else {
      std::memcpy(view_->mutable_pos_list(), in->pos_list(),
                  static_cast<size_t>(in->num_active()) * sizeof(int32_t));
      view_->SetActiveRows(in->num_active());
    }
    return view_.get();
  }
}

void FusedFilterProjectOperator::PublishMetricsImpl() {
  stats_.Add(obs::Metric::kExprFusedBatches, state_.fused_batches());
  stats_.Add(obs::Metric::kExprCompiledBatches, state_.compiled_batches());
  stats_.Add(obs::Metric::kScratchPoolHits, ctx_.pool_hits());
  stats_.Add(obs::Metric::kScratchPoolMisses, ctx_.pool_misses());
}

}  // namespace photon
