#include "storage/compress.h"

#include <cstring>
#include <vector>

#include "common/byte_buffer.h"
#include "common/macros.h"

namespace photon {
namespace {

constexpr int kHashLog = 14;
constexpr int kHashSize = 1 << kHashLog;
constexpr int kMinMatch = 4;
constexpr int kMaxOffset = 65535;

PHOTON_ALWAYS_INLINE uint32_t Read32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

PHOTON_ALWAYS_INLINE uint32_t Hash4(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashLog);
}

void WriteLength(std::string* out, size_t len) {
  // LZ4-style length extension: 255-run bytes then remainder.
  while (len >= 255) {
    out->push_back(static_cast<char>(255));
    len -= 255;
  }
  out->push_back(static_cast<char>(len));
}

std::string LzCompress(std::string_view input) {
  std::string out;
  out.reserve(input.size() / 2 + 64);
  const char* base = input.data();
  const char* end = base + input.size();
  const char* anchor = base;
  const char* p = base;

  std::vector<int32_t> table(kHashSize, -1);

  auto emit_sequence = [&](const char* lit_end, const char* match,
                           int match_len) {
    size_t lit_len = static_cast<size_t>(lit_end - anchor);
    uint8_t token =
        static_cast<uint8_t>((lit_len < 15 ? lit_len : 15) << 4) |
        static_cast<uint8_t>(match_len - kMinMatch < 15
                                 ? match_len - kMinMatch
                                 : 15);
    out.push_back(static_cast<char>(token));
    if (lit_len >= 15) WriteLength(&out, lit_len - 15);
    out.append(anchor, lit_len);
    uint16_t offset = static_cast<uint16_t>(lit_end - match);
    out.push_back(static_cast<char>(offset & 0xFF));
    out.push_back(static_cast<char>(offset >> 8));
    if (match_len - kMinMatch >= 15) {
      WriteLength(&out, static_cast<size_t>(match_len - kMinMatch) - 15);
    }
  };

  if (input.size() >= 13) {
    const char* match_limit = end - 5;  // keep final literals uncompressed
    while (p + kMinMatch <= match_limit) {
      uint32_t h = Hash4(Read32(p));
      int32_t cand = table[h];
      table[h] = static_cast<int32_t>(p - base);
      if (cand >= 0 && (p - base) - cand <= kMaxOffset &&
          Read32(base + cand) == Read32(p)) {
        const char* match = base + cand;
        int match_len = kMinMatch;
        while (p + match_len < match_limit &&
               p[match_len] == match[match_len]) {
          match_len++;
        }
        emit_sequence(p, match, match_len);
        p += match_len;
        anchor = p;
      } else {
        p++;
      }
    }
  }
  // Trailing literals as a final sequence with match_len == 0 marker:
  // token with match nibble 0 and offset 0 means "literals only, end".
  size_t lit_len = static_cast<size_t>(end - anchor);
  uint8_t token = static_cast<uint8_t>((lit_len < 15 ? lit_len : 15) << 4);
  out.push_back(static_cast<char>(token));
  if (lit_len >= 15) WriteLength(&out, lit_len - 15);
  out.append(anchor, lit_len);
  out.push_back(0);
  out.push_back(0);
  return out;
}

Status ReadLength(const char*& p, const char* end, size_t base_len,
                  size_t* out_len) {
  size_t len = base_len;
  if (base_len == 15) {
    while (true) {
      if (p >= end) return Status::IoError("lz: truncated length");
      uint8_t b = static_cast<uint8_t>(*p++);
      len += b;
      if (b != 255) break;
    }
  }
  *out_len = len;
  return Status::OK();
}

// The decoder writes through raw pointers in whole 8- or 16-byte steps, so
// the output is sized once with this much slack past the declared size; a
// step never writes more than 15 bytes past the end of its sequence.
constexpr size_t kWildSlack = 32;

/// Copies `len` bytes from `src` to `dst` in kStep-byte steps, writing up
/// to kStep - 1 bytes past `dst + len` and reading as far past `src + len`.
/// The two ranges must be at least kStep bytes apart (or in different
/// buffers), so no step's memcpy overlaps.
template <size_t kStep>
PHOTON_ALWAYS_INLINE void WildCopy(char* dst, const char* src, size_t len) {
  for (size_t i = 0; i < len; i += kStep) std::memcpy(dst + i, src + i, kStep);
}

/// Match with offset < 8 (the null-byte runs are offset 1): the output is
/// the `offset`-byte period at `op - offset` repeated. One 16-byte pattern
/// of whole periods is built on the stack and stored in steps of the
/// largest multiple of `offset` that fits in 16 bytes, writing up to 15
/// bytes past `op + len`.
PHOTON_ALWAYS_INLINE void ExpandPattern(char* op, size_t offset, size_t len) {
  char pattern[16];
  const char* period = op - offset;
  for (size_t j = 0; j < 16; j++) pattern[j] = period[j % offset];
  const size_t step = 16 - 16 % offset;
  for (size_t i = 0; i < len; i += step) std::memcpy(op + i, pattern, 16);
}

Status LzDecompress(std::string_view payload, size_t expected_size,
                    std::string* out) {
  // One payload byte decodes to at most 255 output bytes (a 255 length
  // byte); a larger declared size can never match, so reject it before
  // sizing the output by it.
  if (expected_size / 255 > payload.size()) {
    return Status::IoError("lz: size mismatch");
  }
  out->resize(expected_size + kWildSlack);
  char* const base = out->data();
  char* const oend = base + expected_size;
  char* op = base;
  const char* p = payload.data();
  const char* end = p + payload.size();
  while (p < end) {
    uint8_t token = static_cast<uint8_t>(*p++);
    size_t lit_len;
    PHOTON_RETURN_NOT_OK(ReadLength(p, end, token >> 4, &lit_len));
    if (lit_len > static_cast<size_t>(end - p)) {
      return Status::IoError("lz: truncated literals");
    }
    if (lit_len > static_cast<size_t>(oend - op)) {
      return Status::IoError("lz: literals overrun the declared size");
    }
    if (lit_len + 15 <= static_cast<size_t>(end - p)) {
      WildCopy<16>(op, p, lit_len);
    } else {
      std::memcpy(op, p, lit_len);  // the wild read would leave the payload
    }
    op += lit_len;
    p += lit_len;
    if (end - p < 2) return Status::IoError("lz: truncated offset");
    size_t offset = static_cast<uint8_t>(p[0]) |
                    (static_cast<size_t>(static_cast<uint8_t>(p[1])) << 8);
    p += 2;
    if (offset == 0) break;  // end marker
    size_t match_len;
    PHOTON_RETURN_NOT_OK(ReadLength(p, end, token & 0xF, &match_len));
    match_len += kMinMatch;
    if (offset > static_cast<size_t>(op - base)) {
      return Status::IoError("lz: bad offset");
    }
    if (match_len > static_cast<size_t>(oend - op)) {
      return Status::IoError("lz: match overruns the declared size");
    }
    // Overlapping matches (offset < length) are valid and repeat the
    // period; each step below reads only bytes already final.
    if (offset >= 16) {
      WildCopy<16>(op, op - offset, match_len);
    } else if (offset >= 8) {
      WildCopy<8>(op, op - offset, match_len);
    } else {
      ExpandPattern(op, offset, match_len);
    }
    op += match_len;
  }
  if (op != oend) return Status::IoError("lz: size mismatch");
  out->resize(expected_size);
  return Status::OK();
}

}  // namespace

std::string Compress(std::string_view input, Codec codec) {
  BinaryWriter header;
  header.WriteU8(static_cast<uint8_t>(codec));
  header.WriteVarU64(input.size());
  std::string out = header.ToString();
  if (codec == Codec::kNone) {
    out.append(input);
    return out;
  }
  out += LzCompress(input);
  return out;
}

Result<std::string> Decompress(std::string_view frame) {
  BinaryReader reader(frame);
  uint8_t codec_byte = 0;
  PHOTON_RETURN_NOT_OK(reader.ReadU8(&codec_byte));
  uint64_t size = 0;
  PHOTON_RETURN_NOT_OK(reader.ReadVarU64(&size));
  std::string_view payload = frame.substr(reader.position());
  if (static_cast<Codec>(codec_byte) == Codec::kNone) {
    if (payload.size() != size) return Status::IoError("bad frame size");
    return std::string(payload);
  }
  std::string out;
  PHOTON_RETURN_NOT_OK(LzDecompress(payload, size, &out));
  return out;
}

}  // namespace photon
