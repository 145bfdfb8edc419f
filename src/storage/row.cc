#include "storage/row.h"

#include "util/byte_io.h"
#include "util/string_util.h"

namespace vr {

namespace {

Status Truncated() { return Status::Corruption("truncated row"); }

void PutValue(std::vector<uint8_t>* out, const Value& v) {
  if (v.is_null()) {
    PutU8(out, 0);
  } else if (v.is_int64()) {
    PutU8(out, static_cast<uint8_t>(ColumnType::kInt64) + 1);
    PutI64(out, v.AsInt64());
  } else if (v.is_double()) {
    PutU8(out, static_cast<uint8_t>(ColumnType::kDouble) + 1);
    PutF64(out, v.AsDouble());
  } else if (v.is_text()) {
    PutU8(out, static_cast<uint8_t>(ColumnType::kText) + 1);
    PutU32(out, static_cast<uint32_t>(v.AsText().size()));
    PutBytes(out, v.AsText().data(), v.AsText().size());
  } else {
    PutU8(out, static_cast<uint8_t>(ColumnType::kBlob) + 1);
    PutU32(out, static_cast<uint32_t>(v.AsBlob().size()));
    PutBytes(out, v.AsBlob().data(), v.AsBlob().size());
  }
}

}  // namespace

Result<std::vector<uint8_t>> SerializeRow(const Schema& schema,
                                          const Row& row) {
  return SerializeRowWithRefs(schema, row, {});
}

Result<std::vector<uint8_t>> SerializeRowWithRefs(
    const Schema& schema, const Row& row,
    const std::vector<std::optional<BlobRef>>& refs) {
  VR_RETURN_NOT_OK(schema.ValidateRow(row));
  std::vector<uint8_t> out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i < refs.size() && refs[i].has_value()) {
      // Text columns may also overflow out of row (VARCHAR -> CLOB).
      if (schema.columns()[i].type != ColumnType::kBlob &&
          schema.columns()[i].type != ColumnType::kText) {
        return Status::InvalidArgument("blob ref on non-overflowable column");
      }
      PutU8(&out, kBlobRefTag);
      PutU32(&out, refs[i]->first_page);
      PutU64(&out, refs[i]->size);
    } else {
      PutValue(&out, row[i]);
    }
  }
  return out;
}

Result<DecodedRow> DeserializeRow(const Schema& schema,
                                  const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  DecodedRow out;
  out.values.reserve(schema.num_columns());
  out.blob_refs.assign(schema.num_columns(), std::nullopt);
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    uint8_t tag = 0;
    if (!reader.ReadU8(&tag)) return Truncated();
    if (tag == 0) {
      out.values.push_back(Value::Null());
    } else if (tag == kBlobRefTag) {
      BlobRef ref;
      if (!reader.ReadU32(&ref.first_page) || !reader.ReadU64(&ref.size)) {
        return Truncated();
      }
      out.blob_refs[i] = ref;
      out.values.push_back(Value::Null());  // resolved later by the Table
    } else {
      const uint8_t type_raw = tag - 1;
      if (type_raw > static_cast<uint8_t>(ColumnType::kBlob)) {
        return Status::Corruption(
            StringPrintf("bad value tag %u in row", tag));
      }
      switch (static_cast<ColumnType>(type_raw)) {
        case ColumnType::kInt64: {
          int64_t v = 0;
          if (!reader.ReadI64(&v)) return Truncated();
          out.values.push_back(Value(v));
          break;
        }
        case ColumnType::kDouble: {
          double d = 0.0;
          if (!reader.ReadF64(&d)) return Truncated();
          out.values.push_back(Value(d));
          break;
        }
        case ColumnType::kText: {
          uint32_t n = 0;
          const uint8_t* raw = nullptr;
          if (!reader.ReadU32(&n) || !reader.ReadSpan(&raw, n)) {
            return Truncated();
          }
          out.values.push_back(
              Value(std::string(reinterpret_cast<const char*>(raw), n)));
          break;
        }
        case ColumnType::kBlob: {
          uint32_t n = 0;
          std::vector<uint8_t> raw;
          if (!reader.ReadU32(&n) || !reader.ReadBytes(&raw, n)) {
            return Truncated();
          }
          out.values.push_back(Value::Blob(std::move(raw)));
          break;
        }
      }
    }
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after row");
  }
  return out;
}

}  // namespace vr
