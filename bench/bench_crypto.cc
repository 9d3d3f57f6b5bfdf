// Crypto microbenchmarks (google-benchmark): the CPU-side cost of every
// primitive the formats use, across both backends. Quantifies the paper's
// §2.2 remark that wide-block modes were not adopted "mainly due to lower
// performance", and the XTS-vs-GCM gap relevant to the integrity extension.
// The LZ codec that runs before encryption on compressed images is timed
// here too, on the same 4 KiB blocks.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "crypto/chacha20.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/rand.h"
#include "crypto/sha256.h"
#include "crypto/wideblock.h"
#include "crypto/xts.h"
#include "util/lz.h"
#include "util/rng.h"

namespace {

using namespace vde;
using namespace vde::crypto;

Bytes BenchKey(size_t n) {
  Rng rng(0xBE7C);
  return rng.RandomBytes(n);
}

Bytes BenchData(size_t n) {
  Rng rng(0xDA7A);
  return rng.RandomBytes(n);
}

void BM_XtsEncrypt(benchmark::State& state, Backend backend) {
  const size_t size = static_cast<size_t>(state.range(0));
  XtsCipher xts(backend, BenchKey(64));
  const Bytes tweak = BenchKey(16);
  const Bytes in = BenchData(size);
  Bytes out(size);
  for (auto _ : state) {
    xts.Encrypt(tweak, in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

void BM_GcmSeal(benchmark::State& state, Backend backend) {
  const size_t size = static_cast<size_t>(state.range(0));
  GcmCipher gcm(backend, BenchKey(32));
  const Bytes iv = BenchKey(12);
  const Bytes in = BenchData(size);
  Bytes out(size), tag(16);
  for (auto _ : state) {
    gcm.Seal(iv, {}, in, out, tag);
    benchmark::DoNotOptimize(tag.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

void BM_GcmOpen(benchmark::State& state, Backend backend) {
  const size_t size = static_cast<size_t>(state.range(0));
  GcmCipher gcm(backend, BenchKey(32));
  const Bytes iv = BenchKey(12);
  const Bytes plain = BenchData(size);
  Bytes cipher(size), tag(16), out(size);
  gcm.Seal(iv, {}, plain, cipher, tag);
  for (auto _ : state) {
    const bool ok = gcm.Open(iv, {}, cipher, out, tag);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

void BM_WideBlockEncrypt(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  WideBlockCipher wb(BenchKey(64));
  const Bytes tweak = BenchKey(16);
  const Bytes in = BenchData(size);
  Bytes out(size);
  for (auto _ : state) {
    wb.Encrypt(tweak, in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

void BM_Sha256(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const Bytes in = BenchData(size);
  for (auto _ : state) {
    auto digest = Sha256::Digest(in);
    benchmark::DoNotOptimize(digest.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

void BM_HmacSha256(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const Bytes key = BenchKey(32);
  const Bytes in = BenchData(size);
  for (auto _ : state) {
    auto tag = HmacSha256(key, in);
    benchmark::DoNotOptimize(tag.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

void BM_DrbgIvGeneration(benchmark::State& state) {
  Drbg drbg(42);
  uint8_t iv[16];
  for (auto _ : state) {
    drbg.Generate(MutByteSpan(iv, 16));
    benchmark::DoNotOptimize(iv);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_ChaCha20(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  const Bytes key = BenchKey(32);
  const Bytes nonce = BenchKey(12);
  Bytes buf = BenchData(size);
  for (auto _ : state) {
    ChaCha20 stream(key, nonce);
    stream.XorStream(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

// Codec input blocks: the leading pct% is one repeated byte, the rest
// random — the fio workload's compressibility shape. Each block has its own
// content so a timed loop cannot train the branch predictor on one block.
constexpr size_t kLzBlocks = 16;

std::vector<Bytes> LzBlocks(size_t size, int pct) {
  Rng rng(0xDA7A);
  std::vector<Bytes> blocks;
  for (size_t b = 0; b < kLzBlocks; ++b) {
    Bytes block = rng.RandomBytes(size);
    std::fill_n(block.begin(), size * static_cast<size_t>(pct) / 100,
                static_cast<uint8_t>(b | 1));
    blocks.push_back(std::move(block));
  }
  return blocks;
}

void BM_LzCompress(benchmark::State& state, int pct) {
  const size_t size = static_cast<size_t>(state.range(0));
  const std::vector<Bytes> blocks = LzBlocks(size, pct);
  // Room for the whole stream, so an incompressible block is timed through
  // to its final record instead of refused early.
  Bytes out(size + size / 255 + 16);
  size_t b = 0;
  for (auto _ : state) {
    const size_t clen = LzCompress(blocks[b++ % kLzBlocks], out);
    benchmark::DoNotOptimize(clen);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

void BM_LzDecompress(benchmark::State& state, int pct) {
  const size_t size = static_cast<size_t>(state.range(0));
  std::vector<Bytes> streams = LzBlocks(size, pct);
  for (Bytes& s : streams) {
    Bytes packed(size + size / 255 + 16);
    packed.resize(LzCompress(s, packed));
    s = std::move(packed);
  }
  Bytes out(size);
  size_t b = 0;
  for (auto _ : state) {
    const Status s = LzDecompress(streams[b++ % kLzBlocks], out);
    benchmark::DoNotOptimize(s.ok());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}

}  // namespace

BENCHMARK_CAPTURE(BM_XtsEncrypt, soft, Backend::kSoft)->Arg(4096);
BENCHMARK_CAPTURE(BM_XtsEncrypt, openssl, Backend::kOpenssl)
    ->Arg(4096)
    ->Arg(65536);
BENCHMARK_CAPTURE(BM_GcmSeal, soft, Backend::kSoft)->Arg(4096);
BENCHMARK_CAPTURE(BM_GcmSeal, openssl, Backend::kOpenssl)->Arg(4096);
BENCHMARK_CAPTURE(BM_GcmOpen, soft, Backend::kSoft)->Arg(4096);
BENCHMARK_CAPTURE(BM_GcmOpen, openssl, Backend::kOpenssl)->Arg(4096);
BENCHMARK(BM_WideBlockEncrypt)->Arg(512)->Arg(4096);
BENCHMARK(BM_Sha256)->Arg(4096);
BENCHMARK(BM_HmacSha256)->Arg(4096);
BENCHMARK(BM_DrbgIvGeneration);
BENCHMARK(BM_ChaCha20)->Arg(4096);
BENCHMARK_CAPTURE(BM_LzCompress, fio50, 50)->Arg(4096);
BENCHMARK_CAPTURE(BM_LzCompress, random, 0)->Arg(4096);
BENCHMARK_CAPTURE(BM_LzDecompress, fio50, 50)->Arg(4096);
BENCHMARK_CAPTURE(BM_LzDecompress, random, 0)->Arg(4096);

BENCHMARK_MAIN();
