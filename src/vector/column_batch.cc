#include "vector/column_batch.h"

#include <cstring>
#include <sstream>

namespace photon {

std::string ColumnBatch::ToString() const {
  std::ostringstream out;
  out << "batch[" << num_active_ << "/" << num_rows_ << " active]\n";
  for (int i = 0; i < num_active_ && i < 20; i++) {
    int row = ActiveRow(i);
    out << "  ";
    for (int c = 0; c < num_columns(); c++) {
      if (c > 0) out << ", ";
      out << columns_[c]->GetValue(row).ToString(schema_.field(c).type);
    }
    out << "\n";
  }
  if (num_active_ > 20) out << "  ... (" << num_active_ - 20 << " more)\n";
  return out.str();
}

namespace {

/// Gathers W-byte values by row index. Byte copies, so one kernel serves
/// every fixed-width type of that width.
template <int W>
void GatherFixed(const uint8_t* PHOTON_RESTRICT in, const int32_t* rows, int n,
                 uint8_t* PHOTON_RESTRICT out) {
  for (int i = 0; i < n; i++) {
    std::memcpy(out + static_cast<size_t>(i) * W,
                in + static_cast<size_t>(rows[i]) * W, W);
  }
}

/// Batch metadata of `dst` after a gather appended rows at `dst_begin`:
/// `before` describes rows [0, dst_begin), the rest describes the new rows.
TriState MergeHasNulls(TriState before, bool any_null, int dst_begin) {
  if (any_null) return TriState::kYes;
  return dst_begin == 0 ? TriState::kNo : before;
}

TriState MergeAllAscii(TriState before, TriState src, int dst_begin) {
  if (dst_begin == 0) return src;
  if (before == TriState::kNo || src == TriState::kNo) return TriState::kNo;
  return before == TriState::kYes && src == TriState::kYes
             ? TriState::kYes
             : TriState::kUnknown;
}

}  // namespace

void GatherRows(const ColumnBatch& src, const int32_t* rows, int n,
                ColumnBatch* dst, int dst_begin, StringGather strings) {
  PHOTON_DCHECK(dst_begin + n <= dst->capacity());
  for (int c = 0; c < src.num_columns(); c++) {
    const ColumnVector& in = *src.column(c);
    ColumnVector* out = dst->column(c);
    const uint8_t* PHOTON_RESTRICT in_nulls = in.nulls();
    uint8_t* PHOTON_RESTRICT out_nulls = out->nulls() + dst_begin;
    uint8_t any_null = 0;
    for (int i = 0; i < n; i++) {
      out_nulls[i] = in_nulls[rows[i]];
      any_null |= out_nulls[i];
    }

    const int width = in.type().byte_width();
    uint8_t* out_bytes =
        out->data<uint8_t>() + static_cast<size_t>(dst_begin) * width;
    if (in.type().is_var_len() && strings == StringGather::kCopy) {
      const StringRef* in_strs = in.data<StringRef>();
      StringRef* out_strs = reinterpret_cast<StringRef*>(out_bytes);
      VarLenPool* pool = out->var_pool();
      for (int i = 0; i < n; i++) {
        out_strs[i] =
            out_nulls[i] ? StringRef() : pool->AddString(in_strs[rows[i]]);
      }
    } else {
      switch (width) {
        case 1:
          GatherFixed<1>(in.data<uint8_t>(), rows, n, out_bytes);
          break;
        case 4:
          GatherFixed<4>(in.data<uint8_t>(), rows, n, out_bytes);
          break;
        case 8:
          GatherFixed<8>(in.data<uint8_t>(), rows, n, out_bytes);
          break;
        default:
          GatherFixed<16>(in.data<uint8_t>(), rows, n, out_bytes);
          break;
      }
    }
    out->set_has_nulls(MergeHasNulls(out->has_nulls(), any_null, dst_begin));
    out->set_all_ascii(MergeAllAscii(out->all_ascii(), in.all_ascii(),
                                     dst_begin));
  }
}

const int32_t* ActiveRowIndices(const ColumnBatch& batch,
                                std::vector<int32_t>* identity) {
  if (!batch.all_active()) return batch.pos_list();
  identity->resize(batch.num_active());
  for (int i = 0; i < batch.num_active(); i++) (*identity)[i] = i;
  return identity->data();
}

std::unique_ptr<ColumnBatch> CompactBatch(const ColumnBatch& src) {
  auto dst = std::make_unique<ColumnBatch>(src.schema(), src.capacity());
  int n = src.num_active();
  std::vector<int32_t> identity;
  GatherRows(src, ActiveRowIndices(src, &identity), n, dst.get(), 0,
             StringGather::kCopy);
  dst->set_num_rows(n);
  dst->SetAllActive();
  return dst;
}

}  // namespace photon
