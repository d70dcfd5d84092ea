#include "storage/bitpack.h"

#include <cstring>

#include "common/macros.h"

namespace photon {

int BitWidthFor(uint64_t max_value) {
  int bits = 1;
  while (max_value >> bits) bits++;
  return bits;
}

void BitPack(const uint32_t* values, int n, int bit_width,
             BinaryWriter* out) {
  PHOTON_CHECK(bit_width >= 1 && bit_width <= 32);
  uint64_t word = 0;
  int bits_in_word = 0;
  for (int i = 0; i < n; i++) {
    word |= static_cast<uint64_t>(values[i]) << bits_in_word;
    bits_in_word += bit_width;
    if (bits_in_word >= 64) {
      out->WriteU64(word);
      bits_in_word -= 64;
      // Remaining high bits of the current value.
      word = bits_in_word > 0
                 ? static_cast<uint64_t>(values[i]) >>
                       (bit_width - bits_in_word)
                 : 0;
    }
  }
  if (bits_in_word > 0) out->WriteU64(word);
}

Status BitUnpack(BinaryReader* in, int n, int bit_width, uint32_t* out) {
  PHOTON_CHECK(bit_width >= 1 && bit_width <= 32);
  // One bounds check for the whole packed run, then a word-at-a-time loop
  // over the span with no per-word Status.
  const int64_t words = (static_cast<int64_t>(n) * bit_width + 63) / 64;
  const uint8_t* span = nullptr;
  PHOTON_RETURN_NOT_OK(in->ReadSpan(static_cast<size_t>(words) * 8, &span));
  const uint64_t mask = (1ULL << bit_width) - 1;
  uint64_t word = 0;
  int bits_in_word = 0;
  for (int i = 0; i < n; i++) {
    if (bits_in_word >= bit_width) {
      out[i] = static_cast<uint32_t>(word & mask);
      word >>= bit_width;
      bits_in_word -= bit_width;
      continue;
    }
    uint64_t next;
    std::memcpy(&next, span, 8);
    span += 8;
    // bits_in_word < bit_width <= 32, so neither shift reaches 64.
    out[i] = static_cast<uint32_t>((word | (next << bits_in_word)) & mask);
    int consumed_from_next = bit_width - bits_in_word;
    word = next >> consumed_from_next;
    bits_in_word = 64 - consumed_from_next;
  }
  return Status::OK();
}

void BitPackSlow(const uint32_t* values, int n, int bit_width,
                 BinaryWriter* out) {
  // Bit-at-a-time into a byte stream padded to whole 64-bit words, so the
  // output is byte-identical to BitPack.
  std::vector<uint8_t> bits;
  bits.reserve(static_cast<size_t>(n) * bit_width);
  for (int i = 0; i < n; i++) {
    for (int b = 0; b < bit_width; b++) {
      bits.push_back((values[i] >> b) & 1);
    }
  }
  while (bits.size() % 64 != 0) bits.push_back(0);
  for (size_t w = 0; w < bits.size(); w += 64) {
    uint64_t word = 0;
    for (int b = 0; b < 64; b++) {
      word |= static_cast<uint64_t>(bits[w + b]) << b;
    }
    out->WriteU64(word);
  }
}

Status BitUnpackSlow(BinaryReader* in, int n, int bit_width, uint32_t* out) {
  int total_bits = n * bit_width;
  int words = (total_bits + 63) / 64;
  std::vector<uint64_t> data(words);
  for (int w = 0; w < words; w++) {
    PHOTON_RETURN_NOT_OK(in->ReadU64(&data[w]));
  }
  for (int i = 0; i < n; i++) {
    uint32_t v = 0;
    for (int b = 0; b < bit_width; b++) {
      int64_t bit = static_cast<int64_t>(i) * bit_width + b;
      uint64_t word = data[bit / 64];
      v |= static_cast<uint32_t>((word >> (bit % 64)) & 1) << b;
    }
    out[i] = v;
  }
  return Status::OK();
}

}  // namespace photon
