#include "storage/format.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "ht/vectorized_hash_table.h"
#include "ops/scan.h"
#include "storage/bitpack.h"

namespace photon {
namespace {

constexpr char kMagic[4] = {'P', 'H', 'O', '1'};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void WriteTypedValue(const DataType& type, const Value& v,
                     BinaryWriter* out) {
  switch (type.id()) {
    case TypeId::kBoolean:
      out->WriteU8(v.boolean() ? 1 : 0);
      break;
    case TypeId::kInt32:
    case TypeId::kDate32:
      out->WriteI32(v.i32());
      break;
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      out->WriteI64(v.i64());
      break;
    case TypeId::kFloat64:
      out->WriteF64(v.f64());
      break;
    case TypeId::kDecimal128: {
      uint128_t u = static_cast<uint128_t>(v.decimal().value());
      out->WriteU64(static_cast<uint64_t>(u));
      out->WriteU64(static_cast<uint64_t>(u >> 64));
      break;
    }
    case TypeId::kString:
      out->WriteString(v.str());
      break;
  }
}

Status ReadTypedValue(const DataType& type, BinaryReader* in, Value* out) {
  switch (type.id()) {
    case TypeId::kBoolean: {
      uint8_t b = 0;
      PHOTON_RETURN_NOT_OK(in->ReadU8(&b));
      *out = Value::Boolean(b != 0);
      return Status::OK();
    }
    case TypeId::kInt32: {
      int32_t v = 0;
      PHOTON_RETURN_NOT_OK(in->ReadI32(&v));
      *out = Value::Int32(v);
      return Status::OK();
    }
    case TypeId::kDate32: {
      int32_t v = 0;
      PHOTON_RETURN_NOT_OK(in->ReadI32(&v));
      *out = Value::Date32(v);
      return Status::OK();
    }
    case TypeId::kInt64: {
      int64_t v = 0;
      PHOTON_RETURN_NOT_OK(in->ReadI64(&v));
      *out = Value::Int64(v);
      return Status::OK();
    }
    case TypeId::kTimestamp: {
      int64_t v = 0;
      PHOTON_RETURN_NOT_OK(in->ReadI64(&v));
      *out = Value::Timestamp(v);
      return Status::OK();
    }
    case TypeId::kFloat64: {
      double v = 0;
      PHOTON_RETURN_NOT_OK(in->ReadF64(&v));
      *out = Value::Float64(v);
      return Status::OK();
    }
    case TypeId::kDecimal128: {
      uint64_t lo = 0, hi = 0;
      PHOTON_RETURN_NOT_OK(in->ReadU64(&lo));
      PHOTON_RETURN_NOT_OK(in->ReadU64(&hi));
      *out = Value::Decimal(Decimal128(
          static_cast<int128_t>((static_cast<uint128_t>(hi) << 64) | lo)));
      return Status::OK();
    }
    case TypeId::kString: {
      std::string s;
      PHOTON_RETURN_NOT_OK(in->ReadString(&s));
      *out = Value::String(std::move(s));
      return Status::OK();
    }
  }
  return Status::Internal("bad type");
}

Value ZeroValueForType(const DataType& type) {
  switch (type.id()) {
    case TypeId::kBoolean:
      return Value::Boolean(false);
    case TypeId::kInt32:
      return Value::Int32(0);
    case TypeId::kDate32:
      return Value::Date32(0);
    case TypeId::kInt64:
      return Value::Int64(0);
    case TypeId::kTimestamp:
      return Value::Timestamp(0);
    case TypeId::kFloat64:
      return Value::Float64(0);
    case TypeId::kDecimal128:
      return Value::Decimal(Decimal128(static_cast<int128_t>(0)));
    case TypeId::kString:
      return Value::String("");
  }
  return Value();
}

void WriteFileMeta(const FileMeta& meta, BinaryWriter* out) {
  out->WriteU8(static_cast<uint8_t>(meta.codec));
  out->WriteVarU64(meta.schema.num_fields());
  for (const Field& f : meta.schema.fields()) {
    out->WriteString(f.name);
    out->WriteU8(static_cast<uint8_t>(f.type.id()));
    out->WriteU8(static_cast<uint8_t>(f.type.precision()));
    out->WriteU8(static_cast<uint8_t>(f.type.scale()));
    out->WriteU8(f.nullable ? 1 : 0);
  }
  out->WriteVarU64(meta.row_groups.size());
  for (const RowGroupMeta& rg : meta.row_groups) {
    out->WriteVarU64(static_cast<uint64_t>(rg.num_rows));
    for (size_t c = 0; c < rg.columns.size(); c++) {
      const ColumnChunkMeta& chunk = rg.columns[c];
      out->WriteU8(static_cast<uint8_t>(chunk.encoding));
      out->WriteU64(chunk.offset);
      out->WriteU64(chunk.compressed_bytes);
      out->WriteVarU64(static_cast<uint64_t>(chunk.null_count));
      out->WriteU8(chunk.has_min_max ? 1 : 0);
      if (chunk.has_min_max) {
        const DataType& type = meta.schema.field(static_cast<int>(c)).type;
        WriteTypedValue(type, chunk.min, out);
        WriteTypedValue(type, chunk.max, out);
      }
      chunk.ndv.Serialize(out);
    }
  }
}

Status ReadFileMeta(BinaryReader* in, FileMeta* out) {
  uint8_t codec = 0;
  PHOTON_RETURN_NOT_OK(in->ReadU8(&codec));
  out->codec = static_cast<Codec>(codec);
  uint64_t num_fields = 0;
  PHOTON_RETURN_NOT_OK(in->ReadVarU64(&num_fields));
  Schema schema;
  for (uint64_t i = 0; i < num_fields; i++) {
    std::string name;
    uint8_t type_id = 0, precision = 0, scale = 0, nullable = 0;
    PHOTON_RETURN_NOT_OK(in->ReadString(&name));
    PHOTON_RETURN_NOT_OK(in->ReadU8(&type_id));
    PHOTON_RETURN_NOT_OK(in->ReadU8(&precision));
    PHOTON_RETURN_NOT_OK(in->ReadU8(&scale));
    PHOTON_RETURN_NOT_OK(in->ReadU8(&nullable));
    DataType type = static_cast<TypeId>(type_id) == TypeId::kDecimal128
                        ? DataType::Decimal(precision, scale)
                        : DataType(static_cast<TypeId>(type_id));
    schema.AddField(Field(name, type, nullable != 0));
  }
  out->schema = schema;
  uint64_t num_groups = 0;
  PHOTON_RETURN_NOT_OK(in->ReadVarU64(&num_groups));
  out->row_groups.clear();
  for (uint64_t g = 0; g < num_groups; g++) {
    RowGroupMeta rg;
    uint64_t rows = 0;
    PHOTON_RETURN_NOT_OK(in->ReadVarU64(&rows));
    rg.num_rows = static_cast<int64_t>(rows);
    for (int c = 0; c < schema.num_fields(); c++) {
      ColumnChunkMeta chunk;
      uint8_t enc = 0, has_stats = 0;
      uint64_t null_count = 0;
      PHOTON_RETURN_NOT_OK(in->ReadU8(&enc));
      chunk.encoding = static_cast<ChunkEncoding>(enc);
      PHOTON_RETURN_NOT_OK(in->ReadU64(&chunk.offset));
      PHOTON_RETURN_NOT_OK(in->ReadU64(&chunk.compressed_bytes));
      PHOTON_RETURN_NOT_OK(in->ReadVarU64(&null_count));
      chunk.null_count = static_cast<int64_t>(null_count);
      PHOTON_RETURN_NOT_OK(in->ReadU8(&has_stats));
      chunk.has_min_max = has_stats != 0;
      if (chunk.has_min_max) {
        PHOTON_RETURN_NOT_OK(
            ReadTypedValue(schema.field(c).type, in, &chunk.min));
        PHOTON_RETURN_NOT_OK(
            ReadTypedValue(schema.field(c).type, in, &chunk.max));
      }
      PHOTON_RETURN_NOT_OK(NdvSketch::Deserialize(in, &chunk.ndv));
      rg.columns.push_back(std::move(chunk));
    }
    out->row_groups.push_back(std::move(rg));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Chunk encoding (Photon fast path)
// ---------------------------------------------------------------------------

namespace {

/// Computes min/max/null_count over a dense column with tight typed loops.
void ComputeStats(const ColumnVector& col, int n, ColumnChunkMeta* meta) {
  const uint8_t* nulls = col.nulls();
  int64_t null_count = 0;
  bool has = false;
  Value min, max;
  auto update = [&](const Value& v) {
    if (!has) {
      min = v;
      max = v;
      has = true;
      return;
    }
    if (v.Compare(min) < 0) min = v;
    if (v.Compare(max) > 0) max = v;
  };
  // Typed fast paths for the common numeric cases; boxed for the rest.
  switch (col.type().id()) {
    case TypeId::kInt32:
    case TypeId::kDate32: {
      const int32_t* vals = col.data<int32_t>();
      int32_t lo = 0, hi = 0;
      for (int i = 0; i < n; i++) {
        if (nulls[i]) {
          null_count++;
          continue;
        }
        if (!has) {
          lo = hi = vals[i];
          has = true;
        } else {
          lo = std::min(lo, vals[i]);
          hi = std::max(hi, vals[i]);
        }
      }
      if (has) {
        min = col.type().id() == TypeId::kDate32 ? Value::Date32(lo)
                                                 : Value::Int32(lo);
        max = col.type().id() == TypeId::kDate32 ? Value::Date32(hi)
                                                 : Value::Int32(hi);
      }
      break;
    }
    case TypeId::kInt64:
    case TypeId::kTimestamp: {
      const int64_t* vals = col.data<int64_t>();
      int64_t lo = 0, hi = 0;
      for (int i = 0; i < n; i++) {
        if (nulls[i]) {
          null_count++;
          continue;
        }
        if (!has) {
          lo = hi = vals[i];
          has = true;
        } else {
          lo = std::min(lo, vals[i]);
          hi = std::max(hi, vals[i]);
        }
      }
      if (has) {
        min = col.type().id() == TypeId::kTimestamp ? Value::Timestamp(lo)
                                                    : Value::Int64(lo);
        max = col.type().id() == TypeId::kTimestamp ? Value::Timestamp(hi)
                                                    : Value::Int64(hi);
      }
      break;
    }
    default: {
      for (int i = 0; i < n; i++) {
        if (nulls[i]) {
          null_count++;
          continue;
        }
        update(col.GetValue(i));
      }
      break;
    }
  }
  meta->null_count = null_count;
  meta->has_min_max = has;
  if (has) {
    meta->min = min;
    meta->max = max;
  }
  // Distinct-value sketch over the non-null values. Boxed hashing is fine
  // here: this runs once per chunk at write time, off the query path.
  for (int i = 0; i < n; i++) {
    if (nulls[i]) continue;
    meta->ndv.Add(col.GetValue(i).HashCode());
  }
}

void EncodePlain(const ColumnVector& col, int n, BinaryWriter* out) {
  switch (col.type().id()) {
    case TypeId::kBoolean: {
      std::vector<uint32_t> bits(n);
      const uint8_t* vals = col.data<uint8_t>();
      for (int i = 0; i < n; i++) bits[i] = vals[i] ? 1 : 0;
      BitPack(bits.data(), n, 1, out);
      break;
    }
    case TypeId::kString: {
      const StringRef* vals = col.data<StringRef>();
      const uint8_t* nulls = col.nulls();
      for (int i = 0; i < n; i++) {
        if (nulls[i]) {
          out->WriteVarU64(0);
          continue;
        }
        out->WriteVarU64(static_cast<uint64_t>(vals[i].len));
        out->Append(vals[i].data, vals[i].len);
      }
      break;
    }
    default:
      out->Append(col.data<uint8_t>(),
                  static_cast<size_t>(n) * col.type().byte_width());
      break;
  }
}

/// Attempts dictionary encoding using the vectorized hash table for the
/// distinct scan; returns false when the column isn't a good candidate.
bool TryEncodeDictionary(const ColumnBatch& batch, int col_idx, int n,
                         const FormatWriteOptions& options,
                         BinaryWriter* out) {
  const ColumnVector& col = *batch.column(col_idx);
  // Dictionary pays off for strings and low-cardinality fixed types.
  VectorizedHashTable ht({col.type()}, sizeof(int32_t),
                         /*match_null_keys=*/true);
  std::vector<uint64_t> hashes(n);
  std::vector<uint8_t*> entries(n);
  auto inserted = std::make_unique<bool[]>(n);
  std::vector<const ColumnVector*> keys = {&col};
  VectorizedHashTable::HashKeys(keys, batch, hashes.data());
  if (!ht.LookupOrInsert(keys, batch, hashes.data(), entries.data(),
                         inserted.get())
           .ok()) {
    return false;
  }

  // Assign dictionary ids in first-occurrence order; bail on blowup.
  std::vector<const uint8_t*> dict_entries;
  std::vector<uint32_t> indices(n);
  int64_t dict_value_bytes = 0;
  for (int i = 0; i < n; i++) {
    if (inserted[i]) {
      if (static_cast<int>(dict_entries.size()) >=
          options.max_dictionary_size) {
        return false;
      }
      *reinterpret_cast<int32_t*>(ht.payload(entries[i])) =
          static_cast<int32_t>(dict_entries.size());
      dict_entries.push_back(entries[i]);
      if (col.type().is_string() && !col.IsNull(i)) {
        dict_value_bytes += col.GetString(i).len;
      } else {
        dict_value_bytes += col.type().byte_width();
      }
    }
    indices[i] = static_cast<uint32_t>(
        *reinterpret_cast<const int32_t*>(ht.payload(entries[i])));
  }

  int bit_width = BitWidthFor(
      dict_entries.empty() ? 1 : dict_entries.size() - 1);
  // Size heuristic: dictionary + packed indices must beat plain.
  int64_t plain_bytes;
  if (col.type().is_string()) {
    plain_bytes = 0;
    const StringRef* vals = col.data<StringRef>();
    const uint8_t* nulls = col.nulls();
    for (int i = 0; i < n; i++) plain_bytes += nulls[i] ? 1 : vals[i].len + 1;
  } else {
    plain_bytes = static_cast<int64_t>(n) * col.type().byte_width();
  }
  int64_t dict_bytes =
      dict_value_bytes + static_cast<int64_t>(n) * bit_width / 8 + 64;
  if (dict_bytes >= plain_bytes) return false;

  out->WriteVarU64(dict_entries.size());
  for (const uint8_t* entry : dict_entries) {
    // NULL dictionary entries are encoded as the type's zero value; the
    // null byte vector restores NULL-ness on read.
    WriteTypedValue(col.type(),
                    ht.KeyIsNull(entry, 0) ? ZeroValueForType(col.type())
                                           : ht.GetKeyValue(entry, 0),
                    out);
  }
  out->WriteU8(static_cast<uint8_t>(bit_width));
  BitPack(indices.data(), n, bit_width, out);
  return true;
}

}  // namespace

FileWriter::FileWriter(Schema schema, FormatWriteOptions options)
    : schema_(std::move(schema)), options_(options) {
  file_.Append(kMagic, 4);
  meta_.schema = schema_;
  meta_.codec = options_.codec;
  pending_ = std::make_unique<ColumnBatch>(
      schema_, static_cast<int>(options_.row_group_rows));
}

Status FileWriter::WriteBatch(const ColumnBatch& batch) {
  PHOTON_CHECK(!finished_);
  const int n = batch.num_active();
  std::vector<int32_t> identity;
  const int32_t* rows = ActiveRowIndices(batch, &identity);
  for (int done = 0; done < n;) {
    const int take = static_cast<int>(std::min<int64_t>(
        n - done, options_.row_group_rows - pending_rows_));
    GatherRows(batch, rows + done, take, pending_.get(),
               static_cast<int>(pending_rows_), StringGather::kCopy);
    done += take;
    pending_rows_ += take;
    if (pending_rows_ == options_.row_group_rows) {
      pending_->set_num_rows(static_cast<int>(pending_rows_));
      pending_->SetAllActive();
      PHOTON_RETURN_NOT_OK(FlushRowGroup());
    }
  }
  return Status::OK();
}

Status FileWriter::FlushRowGroup() {
  int n = static_cast<int>(pending_rows_);
  if (n == 0) return Status::OK();
  pending_->set_num_rows(n);
  pending_->SetAllActive();

  RowGroupMeta rg;
  rg.num_rows = n;
  for (int c = 0; c < schema_.num_fields(); c++) {
    const ColumnVector& col = *pending_->column(c);
    ColumnChunkMeta chunk;

    int64_t t0 = NowNs();
    BinaryWriter payload;
    payload.WriteVarU64(static_cast<uint64_t>(n));
    payload.Append(col.nulls(), n);
    BinaryWriter values;
    bool dict_ok =
        options_.enable_dictionary &&
        TryEncodeDictionary(*pending_, c, n, options_, &values);
    if (dict_ok) {
      chunk.encoding = ChunkEncoding::kDictionary;
      stats_.dictionary_chunks++;
    } else {
      values = BinaryWriter();
      EncodePlain(col, n, &values);
      chunk.encoding = ChunkEncoding::kPlain;
      stats_.plain_chunks++;
    }
    payload.WriteU8(static_cast<uint8_t>(chunk.encoding));
    payload.Append(values.data().data(), values.size());
    ComputeStats(col, n, &chunk);
    int64_t t1 = NowNs();
    stats_.encode_ns += t1 - t0;

    std::string compressed = Compress(
        std::string_view(reinterpret_cast<const char*>(payload.data().data()),
                         payload.size()),
        options_.codec);
    int64_t t2 = NowNs();
    stats_.compress_ns += t2 - t1;

    chunk.offset = file_.size();
    chunk.compressed_bytes = compressed.size();
    file_.Append(compressed.data(), compressed.size());
    rg.columns.push_back(std::move(chunk));
  }
  meta_.row_groups.push_back(std::move(rg));
  pending_->Reset();
  pending_rows_ = 0;
  return Status::OK();
}

Result<std::string> FileWriter::Finish() {
  PHOTON_CHECK(!finished_);
  pending_->set_num_rows(static_cast<int>(pending_rows_));
  pending_->SetAllActive();
  PHOTON_RETURN_NOT_OK(FlushRowGroup());
  finished_ = true;

  BinaryWriter footer;
  WriteFileMeta(meta_, &footer);
  file_.Append(footer.data().data(), footer.size());
  file_.WriteU32(static_cast<uint32_t>(footer.size()));
  file_.Append(kMagic, 4);
  stats_.bytes_written = static_cast<int64_t>(file_.size());
  return file_.ToString();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

Result<std::unique_ptr<FileReader>> FileReader::Open(std::string file_bytes) {
  return Open(std::make_shared<const std::string>(std::move(file_bytes)));
}

Result<std::unique_ptr<FileReader>> FileReader::Open(
    std::shared_ptr<const std::string> file_bytes) {
  PHOTON_CHECK(file_bytes != nullptr);
  auto reader = std::unique_ptr<FileReader>(
      new FileReader(std::move(file_bytes)));
  const std::string& bytes = *reader->bytes_;
  if (bytes.size() < 12 || std::memcmp(bytes.data(), kMagic, 4) != 0 ||
      std::memcmp(bytes.data() + bytes.size() - 4, kMagic, 4) != 0) {
    return Status::IoError("not a photon columnar file");
  }
  uint32_t footer_len;
  std::memcpy(&footer_len, bytes.data() + bytes.size() - 8, 4);
  if (footer_len + 12 > bytes.size()) {
    return Status::IoError("corrupt footer length");
  }
  BinaryReader footer(bytes.data() + bytes.size() - 8 - footer_len,
                      footer_len);
  PHOTON_RETURN_NOT_OK(ReadFileMeta(&footer, &reader->meta_));
  return reader;
}

Result<std::unique_ptr<FileReader>> FileReader::OpenFromStore(
    ObjectStore* store, const std::string& key) {
  PHOTON_ASSIGN_OR_RETURN(std::string bytes, store->Get(key));
  return Open(std::move(bytes));
}

Result<std::unique_ptr<ColumnBatch>> FileReader::ReadRowGroup(
    int row_group, const std::vector<int>& columns) const {
  PHOTON_CHECK(row_group >= 0 && row_group < num_row_groups());
  const RowGroupMeta& rg = meta_.row_groups[row_group];
  std::vector<int> cols = columns;
  if (cols.empty()) {
    for (int c = 0; c < meta_.schema.num_fields(); c++) cols.push_back(c);
  }
  Schema projected;
  for (int c : cols) projected.AddField(meta_.schema.field(c));
  int n = static_cast<int>(rg.num_rows);
  auto batch = std::make_unique<ColumnBatch>(projected,
                                             std::max(n, kDefaultBatchSize));

  for (size_t out_c = 0; out_c < cols.size(); out_c++) {
    const ColumnChunkMeta& chunk = rg.columns[cols[out_c]];
    const DataType& type = meta_.schema.field(cols[out_c]).type;
    ColumnVector* out = batch->column(static_cast<int>(out_c));

    if (chunk.offset + chunk.compressed_bytes > bytes_->size()) {
      return Status::IoError("chunk out of bounds");
    }
    PHOTON_ASSIGN_OR_RETURN(
        std::string payload,
        Decompress(std::string_view(bytes_->data() + chunk.offset,
                                    chunk.compressed_bytes)));
    BinaryReader reader(payload);
    uint64_t stored_n = 0;
    PHOTON_RETURN_NOT_OK(reader.ReadVarU64(&stored_n));
    if (static_cast<int>(stored_n) != n) {
      return Status::IoError("row count mismatch in chunk");
    }
    const uint8_t* nulls_span = nullptr;
    PHOTON_RETURN_NOT_OK(reader.ReadSpan(n, &nulls_span));
    std::memcpy(out->nulls(), nulls_span, n);
    bool any_null = chunk.null_count > 0;
    out->set_has_nulls(any_null ? TriState::kYes : TriState::kNo);

    uint8_t enc = 0;
    PHOTON_RETURN_NOT_OK(reader.ReadU8(&enc));
    if (static_cast<ChunkEncoding>(enc) == ChunkEncoding::kPlain) {
      switch (type.id()) {
        case TypeId::kBoolean: {
          std::vector<uint32_t> bits(n);
          PHOTON_RETURN_NOT_OK(BitUnpack(&reader, n, 1, bits.data()));
          for (int i = 0; i < n; i++) {
            out->data<uint8_t>()[i] = static_cast<uint8_t>(bits[i]);
          }
          break;
        }
        case TypeId::kString: {
          for (int i = 0; i < n; i++) {
            uint64_t len = 0;
            PHOTON_RETURN_NOT_OK(reader.ReadVarU64(&len));
            const uint8_t* span = nullptr;
            PHOTON_RETURN_NOT_OK(reader.ReadSpan(len, &span));
            out->SetString(i, reinterpret_cast<const char*>(span),
                           static_cast<int32_t>(len));
          }
          break;
        }
        default: {
          const uint8_t* span = nullptr;
          size_t bytes = static_cast<size_t>(n) * type.byte_width();
          PHOTON_RETURN_NOT_OK(reader.ReadSpan(bytes, &span));
          std::memcpy(out->data<uint8_t>(), span, bytes);
          break;
        }
      }
    } else {
      // Dictionary chunk.
      uint64_t dict_size = 0;
      PHOTON_RETURN_NOT_OK(reader.ReadVarU64(&dict_size));
      std::vector<Value> dict(dict_size);
      for (uint64_t d = 0; d < dict_size; d++) {
        PHOTON_RETURN_NOT_OK(ReadTypedValue(type, &reader, &dict[d]));
      }
      uint8_t bit_width = 0;
      PHOTON_RETURN_NOT_OK(reader.ReadU8(&bit_width));
      std::vector<uint32_t> indices(n);
      PHOTON_RETURN_NOT_OK(BitUnpack(&reader, n, bit_width, indices.data()));
      for (int i = 0; i < n; i++) {
        if (out->nulls()[i]) continue;
        if (indices[i] >= dict_size) {
          return Status::IoError("dictionary index out of range");
        }
        out->SetValue(i, dict[indices[i]]);
      }
    }
  }
  batch->set_num_rows(n);
  batch->SetAllActive();
  return batch;
}

Result<FileMeta> WriteTableToStore(const Table& table, ObjectStore* store,
                                   const std::string& key,
                                   FormatWriteOptions options,
                                   WriteStats* stats) {
  FileWriter writer(table.schema(), options);
  for (int b = 0; b < table.num_batches(); b++) {
    PHOTON_RETURN_NOT_OK(writer.WriteBatch(table.batch(b)));
  }
  PHOTON_ASSIGN_OR_RETURN(std::string bytes, writer.Finish());
  int64_t t0 = NowNs();
  PHOTON_RETURN_NOT_OK(store->Put(key, std::move(bytes)));
  int64_t io_ns = NowNs() - t0;
  if (stats != nullptr) {
    *stats = writer.stats();
    stats->io_ns = io_ns;
  }
  return writer.meta();
}

}  // namespace photon
