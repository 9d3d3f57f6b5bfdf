// Tests of the compression-before-encryption stage: the in-tree LZ codec
// (round-trips, honest incompressibility, bounds-checked rejection of
// malformed streams) and the format-level record — 3-byte [codec][len]
// header, tail trims that make short ciphertexts sparse, verbatim
// fallback, and the geometry/authentication interactions.
#include "core/format.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <map>
#include <string_view>

#include "util/lz.h"
#include "util/rng.h"

namespace vde::core {
namespace {

using objstore::OsdOp;
using objstore::ReadResult;
using objstore::Transaction;

constexpr uint64_t kObjectSize = 4ull << 20;

Bytes TestKey() {
  Rng rng(0xCAFE);
  return rng.RandomBytes(64);
}

ObjectExtent MakeExtent(uint64_t first_block, size_t count,
                        uint64_t image_block) {
  ObjectExtent ext;
  ext.oid = "rbd_data.test.0000000000000000";
  ext.object_no = 0;
  ext.first_block = first_block;
  ext.block_count = count;
  ext.image_block = image_block;
  return ext;
}

// Block with a pct%-long single-byte run up front and seed-random tail —
// the same shape the fio driver's compressibility knob produces.
Bytes CompressibleBlock(Rng& rng, uint32_t pct) {
  Bytes block(kBlockSize);
  const size_t run = block.size() * pct / 100;
  std::fill(block.begin(), block.begin() + static_cast<long>(run), 0xA7);
  const Bytes tail = rng.RandomBytes(block.size() - run);
  std::copy(tail.begin(), tail.end(), block.begin() + static_cast<long>(run));
  return block;
}

// In-memory object + omap model (same micro store as format_test). Trim
// ops are accepted and ignored: the data buffer's zero tail already equals
// what a punched range reads back as.
struct FakeObject {
  Bytes data = Bytes(kObjectSize + (1 << 20), 0);
  std::map<Bytes, Bytes> omap;

  void ApplyWrite(const Transaction& txn) {
    for (const auto& op : txn.ops) {
      if (op.type == OsdOp::Type::kWrite) {
        std::copy(op.data.begin(), op.data.end(),
                  data.begin() + static_cast<long>(op.offset));
      } else if (op.type == OsdOp::Type::kOmapSet) {
        for (const auto& [k, v] : op.omap_kvs) omap[k] = v;
      }
    }
  }

  ReadResult ServeRead(const Transaction& txn) const {
    ReadResult result;
    for (const auto& op : txn.ops) {
      if (op.type == OsdOp::Type::kRead) {
        result.data.insert(result.data.end(),
                           data.begin() + static_cast<long>(op.offset),
                           data.begin() +
                               static_cast<long>(op.offset + op.length));
      } else if (op.type == OsdOp::Type::kOmapGetRange) {
        for (auto it = omap.lower_bound(op.omap_start);
             it != omap.end() &&
             (op.omap_end.empty() || it->first < op.omap_end);
             ++it) {
          result.omap_values.emplace_back(it->first, it->second);
        }
      }
    }
    return result;
  }
};

EncryptionSpec CompressedSpec(IvLayout layout,
                              Integrity integrity = Integrity::kNone,
                              CipherMode mode = CipherMode::kXtsRandom) {
  EncryptionSpec spec;
  spec.mode = mode;
  spec.layout = layout;
  spec.integrity = integrity;
  spec.iv_seed = 42;
  spec.compression.codec = Compression::kLz;
  return spec;
}

size_t CountTrims(const Transaction& txn) {
  size_t n = 0;
  for (const auto& op : txn.ops) {
    if (op.type == OsdOp::Type::kTrim) ++n;
  }
  return n;
}

// --- Reference codec ---
//
// The bytewise codec exactly as it stood before the word-at-a-time rewrite
// (only the two entry points are renamed). It is the oracle that pins the
// frozen stream: the production codec must emit the same bytes for every
// input and `out` capacity, and decode exactly what this one decodes —
// except a final record that carries a match length, which this version
// accepts and the production codec rejects as malformed.
namespace reference {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr size_t kHashBits = 12;
constexpr size_t kHashSize = size_t{1} << kHashBits;

inline uint32_t Hash4(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Emits one token + extension bytes for `value` with the LZ4 convention:
// nibble 15 means "continuation bytes follow", each worth up to 255.
// Returns false if `out` ran out of room.
bool PutLength(size_t value, MutByteSpan out, size_t& pos) {
  while (value >= 255) {
    if (pos >= out.size()) return false;
    out[pos++] = 255;
    value -= 255;
  }
  if (pos >= out.size()) return false;
  out[pos++] = static_cast<uint8_t>(value);
  return true;
}

size_t ReferenceLzCompress(ByteSpan in, MutByteSpan out) {
  if (in.empty()) return 0;
  uint16_t table[kHashSize];  // positions + 1; 0 = empty
  static_assert(kHashSize * sizeof(uint16_t) <= 8192, "stack-friendly");
  std::memset(table, 0, sizeof(table));
  if (in.size() > kMaxOffset + 1) return 0;  // 64 KiB blocks max by design

  const uint8_t* src = in.data();
  const size_t n = in.size();
  size_t pos = 0;        // write cursor in out
  size_t anchor = 0;     // first literal not yet emitted
  size_t i = 0;          // scan cursor

  auto emit = [&](size_t literal_end, size_t match_len,
                  size_t match_off) -> bool {
    const size_t lit = literal_end - anchor;
    const size_t ml = match_len > 0 ? match_len - kMinMatch : 0;
    if (pos >= out.size()) return false;
    const uint8_t tok =
        static_cast<uint8_t>((lit < 15 ? lit : 15) << 4 |
                             (match_len > 0 ? (ml < 15 ? ml : 15) : 0));
    out[pos++] = tok;
    if (lit >= 15 && !PutLength(lit - 15, out, pos)) return false;
    if (pos + lit > out.size()) return false;
    std::memcpy(out.data() + pos, src + anchor, lit);
    pos += lit;
    if (match_len > 0) {
      if (pos + 2 > out.size()) return false;
      out[pos++] = static_cast<uint8_t>(match_off & 0xff);
      out[pos++] = static_cast<uint8_t>(match_off >> 8);
      if (ml >= 15 && !PutLength(ml - 15, out, pos)) return false;
    }
    return true;
  };

  while (i + kMinMatch <= n) {
    const uint32_t h = Hash4(src + i);
    const size_t cand = table[h];  // position + 1
    table[h] = static_cast<uint16_t>(i + 1);
    if (cand != 0 && std::memcmp(src + cand - 1, src + i, kMinMatch) == 0) {
      const size_t match_pos = cand - 1;
      size_t len = kMinMatch;
      while (i + len < n && src[match_pos + len] == src[i + len]) len++;
      if (!emit(i, len, i - match_pos)) return 0;
      i += len;
      anchor = i;
      // Re-seed the table at the match tail so adjacent runs keep matching.
      if (i + kMinMatch <= n) table[Hash4(src + i - 1)] =
          static_cast<uint16_t>(i);
    } else {
      i++;
    }
  }
  if (!emit(n, 0, 0)) return 0;
  return pos;
}

Status ReferenceLzDecompress(ByteSpan in, MutByteSpan out) {
  const uint8_t* src = in.data();
  const size_t n = in.size();
  size_t i = 0;    // read cursor
  size_t o = 0;    // write cursor

  auto get_length = [&](size_t base) -> size_t {
    // Returns SIZE_MAX on truncation.
    size_t v = base;
    if (base != 15) return v;
    while (true) {
      if (i >= n) return SIZE_MAX;
      const uint8_t b = src[i++];
      v += b;
      if (b != 255) return v;
    }
  };

  while (true) {
    if (i >= n) {
      return Status::Corruption("lz: truncated stream (missing token)");
    }
    const uint8_t tok = src[i++];
    size_t lit = get_length(tok >> 4);
    if (lit == SIZE_MAX) {
      return Status::Corruption("lz: truncated literal length");
    }
    if (i + lit > n) return Status::Corruption("lz: truncated literals");
    if (o + lit > out.size()) {
      return Status::Corruption("lz: output overflow (literals)");
    }
    std::memcpy(out.data() + o, src + i, lit);
    i += lit;
    o += lit;
    if (i == n) break;  // final record: literals only
    if (i + 2 > n) return Status::Corruption("lz: truncated match offset");
    const size_t off = static_cast<size_t>(src[i]) |
                       static_cast<size_t>(src[i + 1]) << 8;
    i += 2;
    size_t ml = get_length(tok & 0x0f);
    if (ml == SIZE_MAX) {
      return Status::Corruption("lz: truncated match length");
    }
    ml += kMinMatch;
    if (off == 0 || off > o) return Status::Corruption("lz: bad match offset");
    if (o + ml > out.size()) {
      return Status::Corruption("lz: output overflow (match)");
    }
    // Byte-wise copy: overlapping matches (off < ml) replicate runs.
    const uint8_t* from = out.data() + o - off;
    uint8_t* to = out.data() + o;
    for (size_t k = 0; k < ml; ++k) to[k] = from[k];
    o += ml;
  }
  if (o != out.size()) {
    return Status::Corruption("lz: short stream (incomplete block)");
  }
  return Status::Ok();
}

}  // namespace reference

using reference::ReferenceLzCompress;
using reference::ReferenceLzDecompress;

// --- The codec itself ---

TEST(LzCodec, RoundTripsCompressiblePatterns) {
  Rng rng(1);
  const Bytes zeros(kBlockSize, 0);
  const Bytes run(kBlockSize, 0x5A);
  Bytes text;
  while (text.size() < kBlockSize) {
    const char* phrase = "rethinking block storage encryption ";
    text.insert(text.end(), phrase, phrase + 36);
  }
  text.resize(kBlockSize);

  const Bytes* inputs[] = {&zeros, &run, &text};
  for (const Bytes* in : inputs) {
    Bytes packed(kBlockSize);
    const size_t clen = LzCompress(*in, packed);
    ASSERT_GT(clen, 0u);
    ASSERT_LT(clen, in->size() / 2);  // these patterns compress hard
    Bytes out(in->size());
    ASSERT_TRUE(LzDecompress(ByteSpan(packed.data(), clen), out).ok());
    EXPECT_EQ(out, *in);
  }
}

TEST(LzCodec, RoundTripsMixedBlocksAtVariousSizes) {
  Rng rng(2);
  for (const size_t size : {size_t{64}, size_t{512}, size_t{4096},
                            size_t{65536}}) {
    Bytes in(size, 0x33);
    // Salt the run with random bytes so matches are short and scattered.
    for (size_t i = 0; i < size; i += 7) in[i] = rng.RandomBytes(1)[0];
    Bytes packed(size);
    const size_t clen = LzCompress(in, packed);
    ASSERT_GT(clen, 0u) << "size=" << size;
    Bytes out(size);
    ASSERT_TRUE(LzDecompress(ByteSpan(packed.data(), clen), out).ok());
    EXPECT_EQ(out, in) << "size=" << size;
  }
}

TEST(LzCodec, ReportsIncompressibleHonestly) {
  Rng rng(3);
  const Bytes in = rng.RandomBytes(kBlockSize);
  // Random data cannot fit under any gain threshold; the codec must say so
  // rather than overflow or pad.
  Bytes packed(kBlockSize - 1);
  EXPECT_EQ(LzCompress(in, packed), 0u);
  Bytes tight(kBlockSize / 2);
  EXPECT_EQ(LzCompress(in, tight), 0u);
}

TEST(LzCodec, RejectsCorruptedStreams) {
  const Bytes in(kBlockSize, 0x5A);
  Bytes packed(kBlockSize);
  const size_t clen = LzCompress(in, packed);
  ASSERT_GT(clen, 2u);
  Bytes out(kBlockSize);

  // Truncation: the stream ends mid-record or produces too few bytes.
  for (const size_t cut : {size_t{1}, clen / 2, clen - 1}) {
    EXPECT_FALSE(LzDecompress(ByteSpan(packed.data(), cut), out).ok())
        << "cut=" << cut;
  }
  // Empty stream cannot produce a 4 KiB block.
  EXPECT_FALSE(LzDecompress(ByteSpan(packed.data(), 0), out).ok());

  // Every single-byte corruption must either fail closed or still write
  // exactly out.size() bytes — never read or write out of bounds. (ASan in
  // the Debug CI job backs the "never" part.)
  for (size_t i = 0; i < clen; ++i) {
    Bytes bad(packed.begin(), packed.begin() + static_cast<long>(clen));
    bad[i] ^= 0xFF;
    (void)LzDecompress(bad, out);
  }

  // A zero match offset (copy from "0 bytes back") is always malformed.
  Bytes zeroes(16, 0);
  zeroes[0] = 0x41;  // 4 literals, match len 4+1
  EXPECT_FALSE(LzDecompress(zeroes, out).ok());
}

TEST(LzCodec, RejectsWrongOutputLength) {
  const Bytes in(kBlockSize, 0x77);
  Bytes packed(kBlockSize);
  const size_t clen = LzCompress(in, packed);
  ASSERT_GT(clen, 0u);
  // Decompress writes exactly out.size() bytes: a mismatched claim in the
  // metadata header surfaces as corruption, not silent truncation.
  Bytes small(kBlockSize / 2);
  EXPECT_FALSE(LzDecompress(ByteSpan(packed.data(), clen), small).ok());
  Bytes big(kBlockSize * 2);
  EXPECT_FALSE(LzDecompress(ByteSpan(packed.data(), clen), big).ok());
}

// --- The production codec against the reference ---

// One seeded codec input of `size` bytes. Shapes 0-4 are the fio workload's
// FillBlock at 0/25/50/75/100% compressibility (a single-byte run, then a
// random tail); 5 salted runs; 6 periodic text; 7 a 4-symbol alphabet;
// 8 random bytes; 9 short runs over 3 symbols (many matches that end a
// few bytes before the input does, where the tail re-seed decides).
constexpr int kInputShapes = 10;

Bytes CodecInput(Rng& rng, size_t size, int shape) {
  Bytes in(size);
  switch (shape) {
    case 0: case 1: case 2: case 3: case 4: {
      const size_t run = size * static_cast<size_t>(shape) * 25 / 100;
      const auto fill = static_cast<uint8_t>(rng.Next() | 1);
      std::fill(in.begin(), in.begin() + static_cast<long>(run), fill);
      rng.Fill(MutByteSpan(in).subspan(run));
      break;
    }
    case 5: {
      const auto fill = static_cast<uint8_t>(rng.Next());
      const size_t stride = rng.NextInRange(2, 16);
      for (size_t i = 0; i < size; ++i) {
        in[i] = i % stride == 0 ? static_cast<uint8_t>(rng.Next()) : fill;
      }
      break;
    }
    case 6: {
      static constexpr std::string_view kPhrase =
          "rethinking block storage encryption with virtual disks; ";
      const size_t period = rng.NextInRange(1, kPhrase.size());
      const size_t start = rng.NextBelow(kPhrase.size());
      for (size_t i = 0; i < size; ++i) {
        in[i] = static_cast<uint8_t>(
            kPhrase[(start + i % period) % kPhrase.size()]);
        if (rng.NextBelow(97) == 0) in[i] = static_cast<uint8_t>(rng.Next());
      }
      break;
    }
    case 7:
      for (auto& b : in) b = static_cast<uint8_t>("ACGT"[rng.Next() & 3]);
      break;
    case 8:
      rng.Fill(in);
      break;
    default:
      for (size_t i = 0; i < size;) {
        const auto symbol = static_cast<uint8_t>("xyz"[rng.NextBelow(3)]);
        for (size_t r = rng.NextInRange(1, 8); r > 0 && i < size; --r) {
          in[i++] = symbol;
        }
      }
      break;
  }
  return in;
}

// Sizes around the 4-byte minimum match, the 8-byte extension step, the
// 15-literal nibble, the block size and the 64 KiB ceiling.
constexpr size_t kEdgeSizes[] = {1,    2,    3,    4,    5,    7,     8,
                                 9,    15,   16,   17,   31,   32,    33,
                                 255,  256,  4095, 4096, 4097, 65535, 65536};

// Every other input draws its size log-uniformly from [1, max_size].
size_t CodecInputSize(Rng& rng, size_t max_size) {
  if (rng.NextBool()) {
    return kEdgeSizes[rng.NextBelow(std::size(kEdgeSizes))];
  }
  const double size =
      std::exp(rng.NextDouble() * std::log(static_cast<double>(max_size)));
  return std::clamp<size_t>(static_cast<size_t>(size), 1, max_size);
}

TEST(LzCodec, MatchesReferenceStreamByteForByte) {
  // The default CompressLimit() the format hands the codec, and the
  // limit at min_gain_pct 0.
  const size_t default_limit =
      kBlockSize - kBlockSize * CompressionSpec{}.min_gain_pct / 100;
  Rng rng(0x15C0DEC);
  constexpr size_t kCases = 20000;
  size_t compressed = 0;
  size_t refused = 0;
  for (size_t c = 0; c < kCases; ++c) {
    const int shape = static_cast<int>(c % kInputShapes);
    const size_t n = CodecInputSize(rng, 65536);
    const Bytes in = CodecInput(rng, n, shape);
    // Unbounded (never refuses), exactly n, the format's limits, half, a
    // cipher floor's worth, and nothing at all.
    const size_t unbounded = n + n / 255 + 16;
    for (const size_t cap : {unbounded, n, size_t{kBlockSize - 1},
                             default_limit, n / 2, size_t{16}, size_t{0}}) {
      // Identical canaries: a refused stream's partial bytes must match
      // too, so the comparison covers the whole buffer.
      Bytes got(cap, 0xEE);
      Bytes want(cap, 0xEE);
      const size_t got_len = LzCompress(in, got);
      const size_t want_len = ReferenceLzCompress(in, want);
      ASSERT_EQ(got_len, want_len)
          << "case=" << c << " shape=" << shape << " n=" << n
          << " cap=" << cap;
      ASSERT_EQ(got, want) << "case=" << c << " shape=" << shape
                           << " n=" << n << " cap=" << cap;
      if (got_len == 0) {
        ASSERT_NE(cap, unbounded) << "case=" << c;
        ++refused;
        continue;
      }
      ++compressed;
      if (cap != unbounded) continue;
      const ByteSpan stream(got.data(), got_len);
      Bytes out(n);
      ASSERT_TRUE(LzDecompress(stream, out).ok()) << "case=" << c;
      ASSERT_EQ(out, in) << "case=" << c;
    }
  }
  // The sweep exercised both outcomes, not just one.
  EXPECT_GT(compressed, kCases);
  EXPECT_GT(refused, kCases);
}

TEST(LzCodec, DecompressAgreesWithReferenceOnMutatedStreams) {
  Rng rng(0xB17F11B);
  constexpr size_t kCases = 6000;
  size_t accepted = 0;
  size_t rejected = 0;
  for (size_t c = 0; c < kCases; ++c) {
    const size_t n = CodecInputSize(rng, 8192);
    const Bytes in = CodecInput(rng, n, static_cast<int>(c % kInputShapes));
    Bytes stream(n + n / 255 + 16);
    stream.resize(LzCompress(in, stream));
    ASSERT_FALSE(stream.empty());
    // Seeded damage: byte flips, a truncation, or both.
    const uint64_t kind = rng.NextBelow(3);
    if (kind != 1) {
      for (uint64_t f = rng.NextInRange(1, 3); f > 0; --f) {
        stream[rng.NextBelow(stream.size())] ^=
            static_cast<uint8_t>(rng.NextInRange(1, 255));
      }
    }
    if (kind != 0) stream.resize(rng.NextBelow(stream.size() + 1));
    // Mostly the true length; sometimes one byte off either way.
    const size_t out_len = n + rng.NextBelow(3) - (n > 1 ? 1 : 0);
    Bytes got(out_len, 0);
    Bytes want(out_len, 0);
    const Status got_s = LzDecompress(stream, got);
    const Status want_s = ReferenceLzDecompress(stream, want);
    if (got_s.ok()) {
      ASSERT_TRUE(want_s.ok()) << "case=" << c;
      ASSERT_EQ(got, want) << "case=" << c;
      ++accepted;
    } else {
      ASSERT_TRUE(got_s.IsCorruption()) << "case=" << c;
      // The one intended difference: a final record with a match nibble.
      if (want_s.ok()) {
        ASSERT_EQ(got_s.message(), "lz: final record carries a match length")
            << "case=" << c;
      }
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// Appends an LZ4-convention length overflow: 255-valued bytes, then the
// remainder.
void AppendLengthExt(Bytes& stream, size_t value) {
  for (; value >= 255; value -= 255) stream.push_back(255);
  stream.push_back(static_cast<uint8_t>(value));
}

// Hand-encodes one record: `lits` as literals, then (match_len > 0) a
// match of match_len bytes from `off` back. match_len 0 is a final record.
void AppendRecord(Bytes& stream, ByteSpan lits, size_t off, size_t match_len) {
  const size_t ml = match_len > 0 ? match_len - 4 : 0;
  stream.push_back(static_cast<uint8_t>(std::min<size_t>(lits.size(), 15) << 4 |
                                        std::min<size_t>(ml, 15)));
  if (lits.size() >= 15) AppendLengthExt(stream, lits.size() - 15);
  stream.insert(stream.end(), lits.begin(), lits.end());
  if (match_len == 0) return;
  stream.push_back(static_cast<uint8_t>(off & 0xff));
  stream.push_back(static_cast<uint8_t>(off >> 8));
  if (ml >= 15) AppendLengthExt(stream, ml - 15);
}

TEST(LzCodec, OverlappingMatchesReplicateRuns) {
  Rng rng(0x0FF5E7);
  for (size_t off = 1; off <= 16; ++off) {
    for (size_t len = 4; len <= 300; ++len) {
      // Either the match reaches back to the very first byte (off == o)
      // or it starts past a longer literal prefix.
      for (const size_t prefix : {off, off + 7}) {
        const Bytes lits = rng.RandomBytes(prefix);
        Bytes stream;
        AppendRecord(stream, lits, off, len);
        AppendRecord(stream, {}, 0, 0);
        Bytes want = lits;
        for (size_t k = 0; k < len; ++k) want.push_back(want[want.size() - off]);

        // The match ends exactly at out.size().
        Bytes out(prefix + len);
        ASSERT_TRUE(LzDecompress(stream, out).ok())
            << "off=" << off << " len=" << len << " prefix=" << prefix;
        ASSERT_EQ(out, want)
            << "off=" << off << " len=" << len << " prefix=" << prefix;

        // One byte short: the match would overrun `out`. It must fail
        // closed without writing past the end (ASan checks the latter).
        Bytes shorter(prefix + len - 1);
        const Status s = LzDecompress(stream, shorter);
        ASSERT_TRUE(s.IsCorruption()) << "off=" << off << " len=" << len;
        EXPECT_EQ(s.message(), "lz: output overflow (match)");
      }
    }
  }
}

TEST(LzCodec, RejectsFinalRecordWithMatchNibble) {
  constexpr std::string_view kMessage =
      "lz: final record carries a match length";
  // Four literals whose token also promises a match, then end of stream.
  const Bytes hand = {0x41, 'v', 'd', 'e', '!'};
  Bytes out(4);
  EXPECT_TRUE(ReferenceLzDecompress(hand, out).ok());  // the old leniency
  Status s = LzDecompress(hand, out);
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(s.message(), kMessage);

  // A compressor-made stream ends with an empty literals-only record; give
  // that final token each possible match nibble.
  const Bytes in(kBlockSize, 0x5A);
  Bytes packed(kBlockSize);
  const size_t clen = LzCompress(in, packed);
  ASSERT_GT(clen, 0u);
  ASSERT_EQ(packed[clen - 1], 0x00);
  Bytes block(kBlockSize);
  ASSERT_TRUE(LzDecompress(ByteSpan(packed.data(), clen), block).ok());
  for (uint8_t nibble = 1; nibble <= 15; ++nibble) {
    packed[clen - 1] = nibble;
    s = LzDecompress(ByteSpan(packed.data(), clen), block);
    EXPECT_TRUE(s.IsCorruption()) << "nibble=" << int{nibble};
    EXPECT_EQ(s.message(), kMessage) << "nibble=" << int{nibble};
  }
}

// --- Format-level: the per-block record across geometries ---

class CompressedFormat : public ::testing::TestWithParam<EncryptionSpec> {};

TEST_P(CompressedFormat, CompressedRoundtripWithTailTrims) {
  const auto spec = GetParam();
  auto format = MakeFormat(spec, TestKey(), kObjectSize);
  ASSERT_NE(format, nullptr);
  Rng rng(10);
  FakeObject obj;

  for (const size_t nblocks : {size_t{1}, size_t{3}, size_t{8}}) {
    const uint64_t first = rng.NextBelow(64);
    Bytes plain;
    for (size_t b = 0; b < nblocks; ++b) {
      const Bytes block = CompressibleBlock(rng, 75);
      plain.insert(plain.end(), block.begin(), block.end());
    }
    const auto ext = MakeExtent(first, nblocks, 1000 + first);

    Transaction wr;
    ASSERT_TRUE(format->MakeWrite(ext, plain, wr).ok());
    // 75%-runs compress well past min_gain: every block sheds its tail.
    EXPECT_EQ(CountTrims(wr), nblocks) << spec.Name();
    obj.ApplyWrite(wr);

    Transaction rd;
    format->MakeRead(ext, rd);
    Bytes out(plain.size());
    ASSERT_TRUE(format->FinishRead(ext, obj.ServeRead(rd), out).ok());
    EXPECT_EQ(out, plain) << spec.Name() << " nblocks=" << nblocks;
  }
  const CompressStats& stats = format->compress_stats();
  EXPECT_EQ(stats.compressed_blocks, 1u + 3u + 8u);
  EXPECT_EQ(stats.verbatim_blocks, 0u);
  EXPECT_EQ(stats.decompressed_blocks, stats.compressed_blocks);
  EXPECT_LT(stats.stored_bytes, stats.in_bytes / 2);
}

TEST_P(CompressedFormat, IncompressibleBlocksStoredVerbatim) {
  const auto spec = GetParam();
  auto format = MakeFormat(spec, TestKey(), kObjectSize);
  ASSERT_NE(format, nullptr);
  Rng rng(11);
  FakeObject obj;

  const Bytes plain = rng.RandomBytes(2 * kBlockSize);
  const auto ext = MakeExtent(0, 2, 0);
  Transaction wr;
  ASSERT_TRUE(format->MakeWrite(ext, plain, wr).ok());
  EXPECT_EQ(CountTrims(wr), 0u);  // full slots: nothing to release
  obj.ApplyWrite(wr);

  Transaction rd;
  format->MakeRead(ext, rd);
  Bytes out(plain.size());
  ASSERT_TRUE(format->FinishRead(ext, obj.ServeRead(rd), out).ok());
  EXPECT_EQ(out, plain);

  const CompressStats& stats = format->compress_stats();
  EXPECT_EQ(stats.compressed_blocks, 0u);
  EXPECT_EQ(stats.verbatim_blocks, 2u);
  EXPECT_EQ(stats.stored_bytes, 2u * kBlockSize);
  EXPECT_EQ(stats.decompressed_blocks, 0u);  // verbatim reads skip the codec
}

TEST_P(CompressedFormat, RewriteRestoresThenRepunchesTheSlot) {
  const auto spec = GetParam();
  auto format = MakeFormat(spec, TestKey(), kObjectSize);
  ASSERT_NE(format, nullptr);
  Rng rng(12);
  FakeObject obj;
  const auto ext = MakeExtent(4, 1, 4);

  // Compressible write, then an incompressible rewrite of the same block:
  // the full-slot data op must overwrite the stale compressed bytes.
  Transaction wr1;
  ASSERT_TRUE(format->MakeWrite(ext, CompressibleBlock(rng, 80), wr1).ok());
  EXPECT_EQ(CountTrims(wr1), 1u);
  obj.ApplyWrite(wr1);

  const Bytes plain2 = rng.RandomBytes(kBlockSize);
  Transaction wr2;
  ASSERT_TRUE(format->MakeWrite(ext, plain2, wr2).ok());
  EXPECT_EQ(CountTrims(wr2), 0u);
  obj.ApplyWrite(wr2);

  Transaction rd;
  format->MakeRead(ext, rd);
  Bytes out(kBlockSize);
  ASSERT_TRUE(format->FinishRead(ext, obj.ServeRead(rd), out).ok());
  EXPECT_EQ(out, plain2);
}

TEST_P(CompressedFormat, TamperedMetadataHeaderFailsClosed) {
  const auto spec = GetParam();
  auto format = MakeFormat(spec, TestKey(), kObjectSize);
  ASSERT_NE(format, nullptr);
  Rng rng(13);
  FakeObject obj;
  const auto ext = MakeExtent(2, 1, 2);

  Transaction wr;
  ASSERT_TRUE(format->MakeWrite(ext, CompressibleBlock(rng, 80), wr).ok());
  obj.ApplyWrite(wr);

  // Corrupt the stored length in the per-block record. Authenticated
  // formats fail the MAC/AAD (the header is bound into the tag); the
  // unauthenticated format still fails on header validation or inside the
  // bounds-checked decompressor — never silently returns garbage lengths.
  FakeObject bad = obj;
  const size_t meta = spec.MetaPerBlock();
  switch (spec.layout) {
    case IvLayout::kUnaligned:
      bad.data[ext.first_block * (kBlockSize + meta) + kBlockSize + 1] ^= 0x44;
      break;
    case IvLayout::kObjectEnd:
      bad.data[kObjectSize + ext.first_block * meta + 1] ^= 0x44;
      break;
    case IvLayout::kOmap:
      for (auto& [k, v] : bad.omap) v[1] ^= 0x44;
      break;
    case IvLayout::kNone:
      FAIL();
  }

  Transaction rd;
  format->MakeRead(ext, rd);
  Bytes out(kBlockSize);
  const Status s = format->FinishRead(ext, bad.ServeRead(rd), out);
  EXPECT_FALSE(s.ok()) << spec.Name();
}

INSTANTIATE_TEST_SUITE_P(
    AllGeometries, CompressedFormat,
    ::testing::Values(
        CompressedSpec(IvLayout::kUnaligned),
        CompressedSpec(IvLayout::kObjectEnd),
        CompressedSpec(IvLayout::kOmap),
        CompressedSpec(IvLayout::kUnaligned, Integrity::kHmac),
        CompressedSpec(IvLayout::kObjectEnd, Integrity::kHmac),
        CompressedSpec(IvLayout::kOmap, Integrity::kHmac),
        CompressedSpec(IvLayout::kObjectEnd, Integrity::kNone,
                       CipherMode::kGcmRandom),
        CompressedSpec(IvLayout::kOmap, Integrity::kNone,
                       CipherMode::kGcmRandom)),
    [](const auto& info) {
      std::string name = info.param.Name();
      for (char& c : name) {
        if (c == '/' || c == '-' || c == '+') c = '_';
      }
      return name;
    });

// --- Spec plumbing ---

TEST(CompressedSpecTest, HeaderGrowsMetaPerBlockByThree) {
  EXPECT_EQ(CompressedSpec(IvLayout::kObjectEnd).MetaPerBlock(), 16u + 3u);
  EXPECT_EQ(
      CompressedSpec(IvLayout::kObjectEnd, Integrity::kHmac).MetaPerBlock(),
      48u + 3u);
  EXPECT_EQ(CompressedSpec(IvLayout::kOmap, Integrity::kNone,
                           CipherMode::kGcmRandom)
                .MetaPerBlock(),
            28u + 3u);
}

TEST(CompressedSpecTest, NameCarriesCodecSuffix) {
  EXPECT_EQ(CompressedSpec(IvLayout::kObjectEnd).Name(),
            "xts-random/object-end+lz");
  EXPECT_EQ(
      CompressedSpec(IvLayout::kOmap, Integrity::kHmac).Name(),
      "xts-random/omap+hmac+lz");
}

TEST(CompressedSpecTest, LengthPreservingFormatsRejectCompression) {
  // The paper's point: a format with no per-block record has nowhere to
  // put {codec, stored_len}, so compression cannot be expressed there.
  for (const CipherMode mode :
       {CipherMode::kNone, CipherMode::kXtsLba, CipherMode::kXtsEssiv,
        CipherMode::kWideLba}) {
    EncryptionSpec spec;
    spec.mode = mode;
    spec.compression.codec = Compression::kLz;
    EXPECT_EQ(MakeFormat(spec, TestKey(), kObjectSize), nullptr)
        << spec.Name();
  }
}

TEST(CompressedSpecTest, CompressionOffIsByteIdenticalMetadata) {
  // The compression-off spec must keep its exact pre-compression record:
  // same MetaPerBlock, same name — so existing images stay readable and
  // the sim's event stream stays identical.
  EncryptionSpec off = CompressedSpec(IvLayout::kObjectEnd);
  off.compression = {};
  EXPECT_EQ(off.MetaPerBlock(), 16u);
  EXPECT_EQ(off.Name(), "xts-random/object-end");
}

}  // namespace
}  // namespace vde::core
