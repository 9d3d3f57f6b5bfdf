#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>

#include "core/format.h"
#include "core/luks_header.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/xts.h"
#include "device/nvme.h"
#include "sim/scheduler.h"
#include "util/crc32.h"
#include "util/lz.h"
#include "util/rng.h"

namespace vdebench {

using namespace vde;

namespace {

constexpr size_t kBlock = core::kBlockSize;
// Transactions replayed per pass, and passes per timed call (the median
// pass is reported).
constexpr size_t kExtents = 128;
constexpr int kPasses = 3;
// Stream primitives run 1 MiB per call, repeated until this much host time
// has passed (at least kPasses calls); the median call is reported.
constexpr size_t kStreamBytes = 1 << 20;
constexpr double kStreamSeconds = 0.05;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Median host seconds of one call of `fn`, over at least kPasses calls and
// at least `min_seconds` in total.
double MedianCallSeconds(const std::function<void()>& fn,
                         double min_seconds) {
  std::vector<double> calls;
  double total = 0;
  while (calls.size() < kPasses || total < min_seconds) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    calls.push_back(SecondsSince(t0));
    total += calls.back();
  }
  return Median(calls);
}

std::string Str(const char* fmt, double a, double b = 0) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

}  // namespace

void FillWorkloadBlock(uint64_t seed, uint32_t compressibility_pct,
                       uint64_t block_no, MutByteSpan out) {
  Rng content(seed * 0x9E3779B97F4A7C15ULL + block_no);
  const size_t repeat =
      out.size() * std::min<uint32_t>(compressibility_pct, 100) / 100;
  const uint8_t run = static_cast<uint8_t>((seed ^ block_no) | 1);
  std::fill(out.begin(), out.begin() + static_cast<long>(repeat), run);
  content.Fill(out.subspan(repeat));
}

ReplayResult ReplayLayers(const ReplayInput& in, Spans& spans,
                          uint64_t trace) {
  ReplayResult res;
  const size_t bpe =
      std::max<size_t>(1, static_cast<size_t>(in.io_size / kBlock));
  const size_t blocks = kExtents * bpe;
  const size_t per_object = (4u << 20) / kBlock;

  Rng key_rng(in.seed ^ 0x5EEDu);
  const Bytes master = key_rng.RandomBytes(core::kMasterKeySize);
  std::unique_ptr<core::EncryptionFormat> format =
      core::MakeFormat(in.spec, master, 4u << 20);

  // The workload's extents and guest content: kExtents IOs of the
  // workload's size, block-aligned, packed into consecutive objects.
  std::vector<core::ObjectExtent> exts(kExtents);
  std::vector<Bytes> plain(kExtents, Bytes(bpe * kBlock));
  for (size_t i = 0; i < kExtents; ++i) {
    const uint64_t image_block = i * bpe;
    exts[i].object_no = image_block / per_object;
    exts[i].oid = "rbd_data.replay." + std::to_string(exts[i].object_no);
    exts[i].first_block = image_block % per_object;
    exts[i].block_count = bpe;
    exts[i].image_block = image_block;
    for (size_t b = 0; b < bpe; ++b) {
      FillWorkloadBlock(in.seed, in.compressibility_pct, image_block + b,
                        MutByteSpan(plain[i].data() + b * kBlock, kBlock));
    }
  }

  // --- core: MakeWrite ---
  std::vector<objstore::Transaction> txns;
  Status status;
  {
    Spans::Scope span(spans, "replay.core.make_write", trace);
    std::vector<double> passes;
    for (int p = 0; p < kPasses; ++p) {
      txns.assign(kExtents, objstore::Transaction{});
      const auto t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < kExtents; ++i) {
        txns[i].oid = exts[i].oid;
        const Status s = format->MakeWrite(exts[i], plain[i], txns[i]);
        if (!s.ok()) status = s;
      }
      passes.push_back(SecondsSince(t0));
    }
    res.metrics.push_back({"core.make_write_host_us_per_block", "us/block",
                           Median(passes) * 1e6 / static_cast<double>(blocks),
                           Str("%.0f blocks per pass", blocks)});
  }
  if (!status.ok()) {
    res.error = "replay MakeWrite: " + status.ToString();
    return res;
  }
  size_t payload = 0;
  for (const auto& t : txns) payload += t.PayloadBytes();
  payload = std::max<size_t>(1, payload / kExtents);

  // --- objstore: Apply / ExecuteRead on a standalone store ---
  std::vector<objstore::ReadResult> reads(kExtents);
  double apply_s = 0, read_s = 0;
  {
    sim::Scheduler sched;
    sched.ConfigureCores(0);
    auto body = [&]() -> sim::Task<void> {
      auto store = co_await objstore::ObjectStore::Open(
          std::make_shared<dev::NvmeDevice>(), in.store);
      if (!store.ok()) {
        status = store.status();
        co_return;
      }
      std::vector<double> passes;
      {
        Spans::Scope span(spans, "replay.objstore.apply", trace);
        for (int p = 0; p < kPasses; ++p) {
          const auto t0 = std::chrono::steady_clock::now();
          for (const auto& t : txns) {
            const Status s = co_await (*store)->Apply(t, {});
            if (!s.ok()) status = s;
          }
          co_await (*store)->Drain();
          passes.push_back(SecondsSince(t0));
        }
      }
      apply_s = Median(passes);
      passes.clear();
      Spans::Scope span(spans, "replay.objstore.read", trace);
      for (int p = 0; p < kPasses; ++p) {
        const auto t0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < kExtents; ++i) {
          objstore::Transaction rt;
          rt.oid = exts[i].oid;
          format->MakeRead(exts[i], rt);
          auto r = co_await (*store)->ExecuteRead(rt, objstore::kHeadSnap);
          if (!r.ok()) {
            status = r.status();
            co_return;
          }
          reads[i] = std::move(*r);
        }
        passes.push_back(SecondsSince(t0));
      }
      read_s = Median(passes);
    };
    sched.Spawn(body());
    sched.Run();
  }
  if (!status.ok()) {
    res.error = "replay store: " + status.ToString();
    return res;
  }
  res.metrics.push_back({"objstore.apply_host_us_per_txn", "us/txn",
                         apply_s * 1e6 / kExtents,
                         Str("%.0f txns of %.0f B payload", kExtents,
                             static_cast<double>(payload))});
  res.metrics.push_back({"objstore.read_host_us_per_txn", "us/txn",
                         read_s * 1e6 / kExtents,
                         Str("%.0f read txns", kExtents)});

  // --- core: FinishRead (decrypt + verify) ---
  {
    Spans::Scope span(spans, "replay.core.finish_read", trace);
    std::vector<Bytes> out(kExtents, Bytes(bpe * kBlock));
    std::vector<double> passes;
    for (int p = 0; p < kPasses; ++p) {
      const auto t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < kExtents; ++i) {
        const Status s = format->FinishRead(exts[i], reads[i], out[i]);
        if (!s.ok()) status = s;
      }
      passes.push_back(SecondsSince(t0));
    }
    for (size_t i = 0; i < kExtents && status.ok(); ++i) {
      if (out[i] != plain[i]) {
        status = Status::Corruption("replayed read of extent " +
                                    std::to_string(i) + " differs");
      }
    }
    res.metrics.push_back({"core.finish_read_host_us_per_block", "us/block",
                           Median(passes) * 1e6 / static_cast<double>(blocks),
                           Str("%.0f blocks per pass", blocks)});
  }
  if (!status.ok()) {
    res.error = "replay FinishRead: " + status.ToString();
    return res;
  }

  // --- crypto / util stream primitives over the workload's blocks ---
  const size_t stream_blocks = kStreamBytes / kBlock;
  Bytes stream(kStreamBytes);
  for (size_t b = 0; b < stream_blocks; ++b) {
    FillWorkloadBlock(in.seed, in.compressibility_pct, b,
                      MutByteSpan(stream.data() + b * kBlock, kBlock));
  }
  Bytes sink(kStreamBytes);
  const Bytes key = key_rng.RandomBytes(64);
  const uint8_t tweak[16] = {1};
  auto block_in = [&](size_t b) {
    return ByteSpan(stream.data() + b * kBlock, kBlock);
  };
  auto block_out = [&](size_t b) {
    return MutByteSpan(sink.data() + b * kBlock, kBlock);
  };
  auto mbps = [](size_t bytes, double s) {
    return s > 0 ? static_cast<double>(bytes) / s / 1e6 : 0.0;
  };

  {
    Spans::Scope span(spans, "replay.crypto.cipher", trace);
    double s = 0;
    if (in.spec.mode == core::CipherMode::kGcmRandom) {
      const crypto::GcmCipher gcm(crypto::Backend::kOpenssl,
                                  ByteSpan(key.data(), 32));
      uint8_t tag[crypto::kGcmTagSize];
      s = MedianCallSeconds(
          [&] {
            for (size_t b = 0; b < stream_blocks; ++b) {
              gcm.Seal(ByteSpan(tweak, crypto::kGcmIvSize), {}, block_in(b),
                       block_out(b), tag);
            }
          },
          kStreamSeconds);
    } else {
      const crypto::XtsCipher xts(crypto::Backend::kOpenssl, key);
      s = MedianCallSeconds(
          [&] {
            for (size_t b = 0; b < stream_blocks; ++b) {
              xts.Encrypt(tweak, block_in(b), block_out(b));
            }
          },
          kStreamSeconds);
    }
    res.metrics.push_back({"crypto.cipher_host_mbps", "MB/s",
                           mbps(kStreamBytes, s),
                           "4096 B blocks, " + in.spec.Name()});
  }
  {
    Spans::Scope span(spans, "replay.crypto.mac", trace);
    const double s = MedianCallSeconds(
        [&] {
          for (size_t b = 0; b < stream_blocks; ++b) {
            (void)crypto::HmacSha256(ByteSpan(key.data(), 32), block_in(b));
          }
        },
        kStreamSeconds);
    res.metrics.push_back({"crypto.mac_host_mbps", "MB/s",
                           mbps(kStreamBytes, s), "4096 B blocks"});
  }
  {
    Spans::Scope span(spans, "replay.util.crc32c", trace);
    const size_t frames = std::max<size_t>(1, kStreamBytes / payload);
    const size_t len = std::min(payload, kStreamBytes);
    uint32_t crc = 0;
    const double s = MedianCallSeconds(
        [&] {
          for (size_t f = 0; f < frames; ++f) {
            crc = Crc32c(ByteSpan(stream.data(), len), crc);
          }
        },
        kStreamSeconds);
    res.metrics.push_back({"util.crc32c_host_mbps", "MB/s",
                           mbps(frames * len, s),
                           Str("%.0f B frames", static_cast<double>(len))});
  }
  {
    Spans::Scope span(spans, "replay.util.lz", trace);
    Bytes packed(kBlock);
    size_t compressed = 0;
    const double s = MedianCallSeconds(
        [&] {
          compressed = 0;
          for (size_t b = 0; b < stream_blocks; ++b) {
            const size_t n = LzCompress(block_in(b), packed);
            if (n == 0) continue;
            ++compressed;
            if (!LzDecompress(ByteSpan(packed.data(), n), block_out(b)).ok()) {
              status = Status::Corruption("lz round trip failed");
            }
          }
        },
        kStreamSeconds);
    res.metrics.push_back(
        {"util.lz_host_mbps", "MB/s", mbps(kStreamBytes, s),
         Str("4096 B blocks, %.0f of %.0f compressed",
             static_cast<double>(compressed),
             static_cast<double>(stream_blocks))});
  }
  if (!status.ok()) res.error = "replay lz: " + status.ToString();
  return res;
}

}  // namespace vdebench
