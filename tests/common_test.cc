#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/byte_buffer.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/time_util.h"
#include "common/unicode.h"
#include "storage/bitpack.h"
#include "storage/compress.h"
#include "storage/object_store.h"

namespace photon {
namespace {

TEST(StringUtilTest, IsAsciiMatchesScalar) {
  Rng rng(1);
  for (int trial = 0; trial < 200; trial++) {
    int len = static_cast<int>(rng.Uniform(0, 100));
    std::string s(len, 0);
    bool force_non_ascii = rng.NextBool(0.5) && len > 0;
    for (int i = 0; i < len; i++) s[i] = static_cast<char>(rng.Uniform(1, 127));
    if (force_non_ascii) {
      s[rng.Uniform(0, len - 1)] = static_cast<char>(0x80 + rng.Uniform(0, 100));
    }
    EXPECT_EQ(IsAscii(s.data(), len), IsAsciiScalar(s.data(), len))
        << "len=" << len;
    EXPECT_EQ(IsAscii(s.data(), len), !force_non_ascii);
  }
}

TEST(StringUtilTest, AsciiCaseMapping) {
  std::string in = "Hello, World! 123 [\\]^_`{|}~";
  std::string up(in.size(), 0), down(in.size(), 0);
  AsciiToUpper(in.data(), up.data(), in.size());
  AsciiToLower(in.data(), down.data(), in.size());
  EXPECT_EQ(up, "HELLO, WORLD! 123 [\\]^_`{|}~");
  EXPECT_EQ(down, "hello, world! 123 [\\]^_`{|}~");
}

TEST(StringUtilTest, SqlLike) {
  EXPECT_TRUE(SqlLikeMatch("hello", "hello"));
  EXPECT_TRUE(SqlLikeMatch("hello", "h%"));
  EXPECT_TRUE(SqlLikeMatch("hello", "%llo"));
  EXPECT_TRUE(SqlLikeMatch("hello", "%ell%"));
  EXPECT_TRUE(SqlLikeMatch("hello", "h_llo"));
  EXPECT_TRUE(SqlLikeMatch("hello", "%"));
  EXPECT_TRUE(SqlLikeMatch("", "%"));
  EXPECT_FALSE(SqlLikeMatch("", "_"));
  EXPECT_FALSE(SqlLikeMatch("hello", "h_llo_"));
  EXPECT_FALSE(SqlLikeMatch("hello", "ell"));
  EXPECT_TRUE(SqlLikeMatch("a%b", "a\x25"
                                  "b"));  // literal text with %
  EXPECT_TRUE(SqlLikeMatch("special offers include", "%special%offers%"));
  EXPECT_FALSE(SqlLikeMatch("special requests", "%special%offers%"));
}

TEST(UnicodeTest, DecodeEncodeRoundTrip) {
  for (uint32_t cp : {0x41u, 0x7Fu, 0x80u, 0x7FFu, 0x800u, 0xFFFFu, 0x10000u,
                      0x10FFFFu, 0x3B1u, 0x430u}) {
    char buf[4];
    int n = Utf8Encode(cp, buf);
    uint32_t back;
    EXPECT_EQ(Utf8Decode(buf, n, &back), n);
    EXPECT_EQ(back, cp);
  }
}

TEST(UnicodeTest, RejectsInvalidSequences) {
  uint32_t cp;
  // Lone continuation byte.
  EXPECT_EQ(Utf8Decode("\x80", 1, &cp), 0);
  // Truncated 2-byte sequence.
  EXPECT_EQ(Utf8Decode("\xC3", 1, &cp), 0);
  // Overlong encoding of '/'.
  EXPECT_EQ(Utf8Decode("\xC0\xAF", 2, &cp), 0);
}

TEST(UnicodeTest, CaseMappingCoverage) {
  EXPECT_EQ(Utf8ToUpper("caf\xC3\xA9"), "CAF\xC3\x89");          // é -> É
  EXPECT_EQ(Utf8ToLower("CAF\xC3\x89"), "caf\xC3\xA9");
  EXPECT_EQ(Utf8ToUpper("\xCE\xB1\xCE\xB2\xCF\x82"),
            "\xCE\x91\xCE\x92\xCE\xA3");  // αβς -> ΑΒΣ (final sigma)
  EXPECT_EQ(Utf8ToUpper("\xD0\xBC\xD0\xB8\xD1\x80"),
            "\xD0\x9C\xD0\x98\xD0\xA0");  // мир -> МИР
  // Unmapped codepoints pass through.
  EXPECT_EQ(Utf8ToUpper("\xE4\xB8\xAD"), "\xE4\xB8\xAD");  // 中
}

TEST(UnicodeTest, Utf8Length) {
  EXPECT_EQ(Utf8Length("abc"), 3);
  EXPECT_EQ(Utf8Length("caf\xC3\xA9"), 4);
  EXPECT_EQ(Utf8Length(""), 0);
  EXPECT_EQ(Utf8Length("\xF0\x9F\x98\x80"), 1);  // emoji, 4 bytes
}

TEST(TimeUtilTest, CivilConversionRoundTrip) {
  for (int32_t days : {0, 1, -1, 365, 19358, -719162, 2932896}) {
    CivilDate c = DaysToCivil(days);
    EXPECT_EQ(CivilToDays(c.year, c.month, c.day), days);
  }
  CivilDate epoch = DaysToCivil(0);
  EXPECT_EQ(epoch.year, 1970);
  EXPECT_EQ(epoch.month, 1);
  EXPECT_EQ(epoch.day, 1);
}

TEST(TimeUtilTest, ParseAndFormat) {
  int32_t days;
  ASSERT_TRUE(ParseDate("2023-06-15", &days));
  EXPECT_EQ(FormatDate(days), "2023-06-15");
  EXPECT_EQ(ExtractYear(days), 2023);
  EXPECT_EQ(ExtractMonth(days), 6);
  EXPECT_EQ(ExtractDay(days), 15);
  EXPECT_FALSE(ParseDate("not-a-date", &days));
  EXPECT_FALSE(ParseDate("2023-13-01", &days));
}

TEST(TimeUtilTest, LeapYears) {
  int32_t days;
  ASSERT_TRUE(ParseDate("2000-02-29", &days));
  EXPECT_EQ(FormatDate(days), "2000-02-29");
  EXPECT_EQ(FormatDate(days + 1), "2000-03-01");
  // 1900 is not a leap year.
  ASSERT_TRUE(ParseDate("1900-02-28", &days));
  EXPECT_EQ(FormatDate(days + 1), "1900-03-01");
}

TEST(TimeUtilTest, AddMonthsClampsDay) {
  int32_t days;
  ASSERT_TRUE(ParseDate("2023-01-31", &days));
  EXPECT_EQ(FormatDate(AddMonths(days, 1)), "2023-02-28");
  EXPECT_EQ(FormatDate(AddMonths(days, 3)), "2023-04-30");
  EXPECT_EQ(FormatDate(AddMonths(days, -1)), "2022-12-31");
  EXPECT_EQ(FormatDate(AddMonths(days, 12)), "2024-01-31");
}

TEST(HashTest, BytesHashStability) {
  // Same bytes -> same hash; differing bytes -> (overwhelmingly) different.
  std::string a = "the quick brown fox";
  std::string b = "the quick brown foy";
  EXPECT_EQ(HashBytes(a.data(), a.size()), HashBytes(a.data(), a.size()));
  EXPECT_NE(HashBytes(a.data(), a.size()), HashBytes(b.data(), b.size()));
  EXPECT_NE(HashBytes(a.data(), 5), HashBytes(a.data(), 6));
}

TEST(CompressTest, RoundTripRandomAndRepetitive) {
  Rng rng(2);
  // Highly compressible input.
  std::string rep;
  for (int i = 0; i < 1000; i++) rep += "abcabcabc-";
  std::string frame = Compress(rep, Codec::kLz);
  EXPECT_LT(frame.size(), rep.size() / 3);
  Result<std::string> back = Decompress(frame);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, rep);

  // Random (incompressible) input still round-trips.
  for (int trial = 0; trial < 20; trial++) {
    int len = static_cast<int>(rng.Uniform(0, 5000));
    std::string data(len, 0);
    for (int i = 0; i < len; i++) data[i] = static_cast<char>(rng.Next());
    Result<std::string> rt = Decompress(Compress(data, Codec::kLz));
    ASSERT_TRUE(rt.ok());
    EXPECT_EQ(*rt, data) << "len=" << len;
    // kNone codec too.
    rt = Decompress(Compress(data, Codec::kNone));
    ASSERT_TRUE(rt.ok());
    EXPECT_EQ(*rt, data);
  }
}

TEST(CompressTest, OverlappingMatchesRle) {
  std::string rle(10000, 'x');
  std::string frame = Compress(rle, Codec::kLz);
  EXPECT_LT(frame.size(), 200u);
  Result<std::string> back = Decompress(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, rle);
}

TEST(CompressTest, RejectsCorruptFrames) {
  std::string frame = Compress("hello world hello world", Codec::kLz);
  std::string truncated = frame.substr(0, frame.size() / 2);
  EXPECT_FALSE(Decompress(truncated).ok());
  EXPECT_FALSE(Decompress("").ok());
}

// A hand-built kLz frame body: each sequence is literals, then a match of
// `match_len` bytes `offset` back; offset 0 makes a literals-only sequence
// with the end marker. DecodeByteAtATime is the reference decoder.
struct LzSeq {
  std::string literals;
  int offset = 0;
  int match_len = 0;
};

void WriteLzLength(std::string* out, size_t len) {
  while (len >= 255) {
    out->push_back(static_cast<char>(255));
    len -= 255;
  }
  out->push_back(static_cast<char>(len));
}

std::string LzPayload(const std::vector<LzSeq>& seqs) {
  std::string out;
  for (const LzSeq& s : seqs) {
    size_t lit = s.literals.size();
    size_t extra = s.offset == 0 ? 0 : static_cast<size_t>(s.match_len - 4);
    out.push_back(static_cast<char>(((lit < 15 ? lit : 15) << 4) |
                                    (extra < 15 ? extra : 15)));
    if (lit >= 15) WriteLzLength(&out, lit - 15);
    out += s.literals;
    out.push_back(static_cast<char>(s.offset & 0xFF));
    out.push_back(static_cast<char>(s.offset >> 8));
    if (s.offset != 0 && extra >= 15) WriteLzLength(&out, extra - 15);
  }
  return out;
}

std::string LzFrame(uint64_t declared_size, const std::string& payload) {
  BinaryWriter header;
  header.WriteU8(static_cast<uint8_t>(Codec::kLz));
  header.WriteVarU64(declared_size);
  return header.ToString() + payload;
}

std::string DecodeByteAtATime(const std::vector<LzSeq>& seqs) {
  std::string out;
  for (const LzSeq& s : seqs) {
    out += s.literals;
    for (int i = 0; i < (s.offset == 0 ? 0 : s.match_len); i++) {
      out.push_back(out[out.size() - s.offset]);
    }
  }
  return out;
}

std::string RandomBytes(Rng* rng, int len) {
  std::string s(len, 0);
  for (char& c : s) c = static_cast<char>(rng->Next());
  return s;
}

TEST(CompressTest, EveryShortOffsetAcrossCopySteps) {
  // The decoder copies offsets >= 16 in 16-byte steps, 8..15 in 8-byte
  // steps and expands shorter ones as a pattern; these lengths end a copy
  // on, just before and just after each step boundary.
  Rng rng(3);
  for (int offset = 1; offset <= 20; offset++) {
    for (int len : {4, 5, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 47, 48,
                    49, 64, 65, 100, 270, 1000}) {
      // The frame ends right after the last match, after an end marker
      // with no literals, or after trailing literals and the marker.
      for (int ending = 0; ending < 3; ending++) {
        std::vector<LzSeq> seqs = {{RandomBytes(&rng, offset + 3), offset,
                                    len}};
        // A second match right behind the first reads the first's output.
        seqs.push_back({RandomBytes(&rng, 2), offset, len + 1});
        if (ending == 1) seqs.push_back({"", 0, 0});
        if (ending == 2) seqs.push_back({RandomBytes(&rng, 5), 0, 0});
        std::string expected = DecodeByteAtATime(seqs);
        Result<std::string> got =
            Decompress(LzFrame(expected.size(), LzPayload(seqs)));
        ASSERT_TRUE(got.ok()) << got.status().ToString() << " offset "
                              << offset << " len " << len;
        ASSERT_EQ(*got, expected) << "offset " << offset << " len " << len;
      }
    }
    // The compressor's own frames of a periodic input, too.
    std::string periodic = RandomBytes(&rng, offset);
    while (periodic.size() < 3000) periodic += periodic.substr(0, offset);
    Result<std::string> rt = Decompress(Compress(periodic, Codec::kLz));
    ASSERT_TRUE(rt.ok());
    EXPECT_EQ(*rt, periodic) << "period " << offset;
  }
}

TEST(CompressTest, LongLiteralRunsAndMatches) {
  Rng rng(4);
  for (int lit : {14, 15, 16, 269, 270, 271, 600}) {
    std::vector<LzSeq> seqs = {
        {RandomBytes(&rng, lit), std::min(lit, 16), 18 + 255},
        {RandomBytes(&rng, lit), 1, 19 + 255 * 2},
        {"", 0, 0}};
    std::string expected = DecodeByteAtATime(seqs);
    Result<std::string> got =
        Decompress(LzFrame(expected.size(), LzPayload(seqs)));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, expected) << "literals " << lit;
  }
}

TEST(CompressTest, CorruptFramesAreIoErrors) {
  auto rejects = [](const std::string& frame, const char* what) {
    Result<std::string> got = Decompress(frame);
    ASSERT_FALSE(got.ok()) << what;
    EXPECT_TRUE(got.status().IsIoError()) << what << ": "
                                          << got.status().ToString();
  };
  const std::vector<LzSeq> ok = {{"abcdefgh", 8, 20}, {"xy", 0, 0}};
  const std::string good = LzPayload(ok);
  const size_t size = DecodeByteAtATime(ok).size();
  ASSERT_TRUE(Decompress(LzFrame(size, good)).ok());

  rejects(LzFrame(size, LzPayload({{"abcd", 5, 8}})),
          "offset past the output");
  // Both overruns run far past the decoder's slack, so a missing check
  // shows as a heap overflow under ASan, not only as a size mismatch.
  rejects(LzFrame(3, LzPayload({{std::string(200, 'a'), 0, 0}})),
          "literal past the declared size");
  rejects(LzFrame(10, LzPayload({{"abcd", 4, 300}})),
          "match past the declared size");
  rejects(LzFrame(size + 1, good), "declared size larger than the output");
  rejects(LzFrame(size - 1, good), "declared size smaller than the output");
  rejects(LzFrame(uint64_t{1} << 60, good), "absurd declared size");
  // Truncated length bytes: a 15 literal nibble with no extension byte,
  // and a 15 match nibble whose extension is cut off.
  rejects(LzFrame(100, std::string("\xF0", 1)), "truncated literal length");
  std::string long_match = LzPayload({{"abcd", 4, 300}});
  rejects(LzFrame(304, long_match.substr(0, long_match.size() - 1)),
          "truncated match length");
  rejects(LzFrame(10, std::string("\xA0" "abc", 4)), "truncated literals");
  rejects(LzFrame(4, std::string("\x40" "abcd" "\x04", 6)),
          "truncated offset");
}

TEST(BitUnpackTest, MatchesSlowReferenceAtEveryWidth) {
  Rng rng(5);
  for (int width = 1; width <= 32; width++) {
    const uint64_t mask = width == 32 ? 0xFFFFFFFFull : (1ull << width) - 1;
    for (int n : {1, 3, 63, 65, 127, 130, 1000, 1013}) {
      std::vector<uint32_t> values(n);
      for (uint32_t& v : values) v = static_cast<uint32_t>(rng.Next() & mask);
      BinaryWriter packed;
      BitPack(values.data(), n, width, &packed);
      packed.WriteU8(0xAB);  // a trailing byte neither unpacker may consume

      std::vector<uint32_t> fast(n), slow(n);
      BinaryReader fast_in(packed.data().data(), packed.size());
      BinaryReader slow_in(packed.data().data(), packed.size());
      ASSERT_TRUE(BitUnpack(&fast_in, n, width, fast.data()).ok());
      ASSERT_TRUE(BitUnpackSlow(&slow_in, n, width, slow.data()).ok());
      ASSERT_EQ(fast, slow) << "width " << width << " n " << n;
      ASSERT_EQ(fast, values) << "width " << width << " n " << n;
      EXPECT_EQ(fast_in.position(), slow_in.position());
      EXPECT_EQ(fast_in.remaining(), 1u);

      // One byte short of the packed run: both reject it.
      BinaryReader short_fast(packed.data().data(), packed.size() - 2);
      BinaryReader short_slow(packed.data().data(), packed.size() - 2);
      EXPECT_TRUE(BitUnpack(&short_fast, n, width, fast.data()).IsIoError());
      EXPECT_TRUE(
          BitUnpackSlow(&short_slow, n, width, slow.data()).IsIoError());
    }
  }
}

TEST(ObjectStoreTest, PutGetListDelete) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("a/1", "one").ok());
  ASSERT_TRUE(store.Put("a/2", "two").ok());
  ASSERT_TRUE(store.Put("b/1", "three").ok());
  Result<std::string> got = store.Get("a/2");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "two");
  EXPECT_FALSE(store.Get("missing").ok());
  EXPECT_EQ(store.List("a/").size(), 2u);
  EXPECT_EQ(store.DeletePrefix("a/"), 2);
  EXPECT_EQ(store.List("a/").size(), 0u);
  EXPECT_TRUE(store.Exists("b/1"));
}

TEST(ObjectStoreTest, FailureInjection) {
  ObjectStore store;
  store.FailNextPuts(1);
  EXPECT_TRUE(store.Put("x", "1").IsIoError());
  EXPECT_TRUE(store.Put("x", "1").ok());
}

}  // namespace
}  // namespace photon
