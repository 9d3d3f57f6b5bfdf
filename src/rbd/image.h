// RBD-like virtual disk image: stripes a linear block space over 4 MiB
// RADOS objects and runs every IO through the pluggable encryption format
// (libRBD with the paper's modified crypto layer).
//
// The datapath is completion-based (librbd aio_*): Aio* entry points accept
// arbitrary offsets/lengths and scatter-gather iovecs, split the range into
// per-object requests, and resolve a Completion on the sim scheduler.
// Partial 4 KiB blocks are handled by read-modify-write inside the crypto
// layer; discard/write-zeroes clear data and IV metadata atomically per
// object. The coroutine methods (Read/Write/...) are thin sugar over the
// same path.
//
// A per-image write-back layer (rbd/writeback.h) sits between requests and
// the format: overlapping block ranges are admitted in submission order
// (fixing the RMW lost-update race) and sub-block writes coalesce in a
// volatile staging buffer — AioFlush is the durability barrier.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/format.h"
#include "core/luks_header.h"
#include "obs/metrics.h"
#include "obs/plane.h"
#include "qos/scheduler.h"
#include "rados/cluster.h"
#include "rbd/completion.h"
#include "rbd/image_request.h"
#include "rbd/iv_cache.h"
#include "rbd/meta_store.h"
#include "rbd/trim_state.h"
#include "rbd/writeback.h"

namespace vde::rbd {

struct ImageOptions {
  uint64_t size = 1ull << 30;
  uint64_t object_size = 4ull << 20;
  // Guest-side striping (RBD "fancy striping", persisted in the header).
  // stripe_unit bytes go to an object before the next unit moves to the
  // next object in a set of stripe_count objects; after stripe_count *
  // (object_size / stripe_unit) units the next object set begins. The
  // defaults (0 -> object_size, count 1) keep the legacy contiguous
  // layout bit-for-bit. stripe_unit must be a multiple of the 4 KiB
  // crypto block and divide object_size.
  uint64_t stripe_unit = 0;  // 0 = object_size (no striping)
  uint64_t stripe_count = 1;
  core::EncryptionSpec enc;
  core::LuksHeader::Params luks;
  WritebackConfig writeback;
  // Client-side IV-metadata cache (not persisted): random-IV reads whose
  // rows are resident issue data-only reads. No-op for formats without
  // per-sector metadata; disabled = zero-overhead passthrough.
  IvCacheConfig iv_cache;
  // Client-side QoS (not persisted): images sharing one scheduler are
  // tenants of one dispatch queue — the multi-tenant host serving many
  // virtual disks from one process. Null scheduler or a disabled policy is
  // a zero-overhead passthrough.
  std::shared_ptr<qos::Scheduler> qos_scheduler;
  qos::QosPolicy qos;
  // Persistent metadata plane (not persisted in the image header — it
  // binds to a local device): durable IV-cache rows + discard bitmaps so
  // a clean reopen against the same device starts warm. Disabled, or a
  // format without authenticated trims, is a zero-overhead passthrough.
  MetaStoreConfig meta_store;
  // Client-side observability plane (not persisted): request tracing,
  // per-stage latency histograms, slow-op tracking. Disabled (default) is
  // a bit-identical sim-clock passthrough.
  obs::Config obs;
  // Cluster-side QoS identity (not persisted): every RADOS op this image
  // issues carries tenant.id for the OSDs' mClock dequeues, and Open/Create
  // register the spec with the cluster. The default (id 0, no reservation
  // or limit) is the untagged tenant — a no-op unless cluster QoS is on.
  rados::TenantSpec tenant;
};

// Every monotonic ImageStats counter, in declaration order. Drives
// ImageStats::Delta, the metrics-registry export, and FioResult::ToJson —
// add a field to the struct AND this list (a static_assert in image.cc
// checks the count). qos_peak_queue is deliberately absent: it is a
// high-water mark, not a monotonic counter.
#define VDE_IMAGE_STATS_COUNTERS(X)                                       \
  X(writes)                                                               \
  X(reads)                                                                \
  X(discards)                                                             \
  X(flushes)                                                              \
  X(bytes_written)                                                        \
  X(bytes_read)                                                           \
  X(bytes_discarded)                                                      \
  X(rmw_blocks)                                                           \
  X(rmw_merged)                                                           \
  X(wb_hits)                                                              \
  X(wb_stages)                                                            \
  X(wb_flushes)                                                           \
  X(iv_hits)                                                              \
  X(iv_misses)                                                            \
  X(iv_evictions)                                                         \
  X(iv_invalidations)                                                     \
  X(iv_meta_bytes_saved)                                                  \
  X(iv_meta_bytes_fetched)                                                \
  X(trim_zero_reads)                                                      \
  X(trim_state_loads)                                                     \
  X(trim_bitmap_updates)                                                  \
  X(qos_submitted)                                                        \
  X(qos_queued)                                                           \
  X(qos_throttled)                                                        \
  X(qos_wait_ns)                                                          \
  X(meta_warm_hits)                                                       \
  X(meta_recovered_rows)                                                  \
  X(meta_spills)                                                          \
  X(meta_epoch_rejections)                                                \
  X(meta_cold_resets)                                                     \
  X(meta_journal_flushes)                                                 \
  X(meta_gc_rows)                                                         \
  X(meta_kv_wal_bytes)                                                    \
  X(meta_kv_wal_commits)                                                  \
  X(meta_kv_flush_bytes)                                                  \
  X(meta_kv_compaction_bytes)                                             \
  X(compress_in_bytes)                                                    \
  X(compress_stored_bytes)                                                \
  X(compress_blocks)                                                      \
  X(compress_verbatim_blocks)                                             \
  X(compress_expanded_blocks)

struct ImageStats {
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t discards = 0;       // discard + write-zeroes requests
  uint64_t flushes = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_discarded = 0;
  uint64_t rmw_blocks = 0;     // partial blocks read back for merge
  uint64_t rmw_merged = 0;     // RMW edge reads served from the staging
                               // buffer (store read avoided)
  uint64_t wb_hits = 0;        // writes absorbed into an existing stage
  uint64_t wb_stages = 0;      // staged-block creations
  uint64_t wb_flushes = 0;     // staged-block flush transactions
  // IV-metadata cache counters, mirrored from the image's IvCache (all
  // zero with the cache disabled or a metadata-free format).
  uint64_t iv_hits = 0;          // extents read data-only off cached rows
  uint64_t iv_misses = 0;        // extents that fetched their metadata
  uint64_t iv_evictions = 0;     // objects evicted by LRU pressure
  uint64_t iv_invalidations = 0; // rows dropped stale: trimmed (discard/
                                 // write-zeroes/remove) or superseded by an
                                 // overwrite (which re-caches fresh rows)
  uint64_t iv_meta_bytes_saved = 0;    // metadata fetch bytes avoided
  uint64_t iv_meta_bytes_fetched = 0;  // metadata bytes actually fetched
  // Discard-pipeline counters: reads served client-side from cleared
  // markers (no store IO at all), authenticated-bitmap loads (once per
  // object), and transactions that carried a bitmap update op.
  uint64_t trim_zero_reads = 0;
  uint64_t trim_state_loads = 0;
  uint64_t trim_bitmap_updates = 0;
  // QoS dispatch counters, mirrored from the shared scheduler's per-tenant
  // stats (all zero without an enabled policy).
  uint64_t qos_submitted = 0;  // requests routed through the dispatch queue
  uint64_t qos_queued = 0;     // of those, dispatched only after waiting
  uint64_t qos_throttled = 0;  // head-of-queue token-bucket deferrals
  uint64_t qos_wait_ns = 0;    // total sim time spent in the queue
  uint64_t qos_peak_queue = 0; // high-water dispatch-queue length
  // Persistent metadata plane counters, mirrored from the image's
  // MetaStore and its backing KV (all zero with the plane disabled).
  uint64_t meta_warm_hits = 0;        // bitmaps/row-sets served warm
  uint64_t meta_recovered_rows = 0;   // IV rows installed at reopen
  uint64_t meta_spills = 0;           // journal entries (rows + bitmaps)
  uint64_t meta_epoch_rejections = 0; // persisted rows refused by the floor
  uint64_t meta_cold_resets = 0;      // dirty/corrupt/mismatched starts
  uint64_t meta_journal_flushes = 0;  // write-behind batches committed
  uint64_t meta_gc_rows = 0;          // persisted rows GC'd for removed objects
  uint64_t meta_kv_wal_bytes = 0;         // plane WAL bytes written
  uint64_t meta_kv_wal_commits = 0;       // plane WAL commits
  uint64_t meta_kv_flush_bytes = 0;       // plane memtable-flush bytes
  uint64_t meta_kv_compaction_bytes = 0;  // plane compaction bytes
  // Compression-stage counters, mirrored from the format's CompressStats
  // (all zero with compression off). stored/in is the achieved physical
  // ratio; verbatim blocks count toward in/stored at full block size.
  uint64_t compress_in_bytes = 0;         // plaintext bytes offered
  uint64_t compress_stored_bytes = 0;     // ciphertext bytes stored
  uint64_t compress_blocks = 0;           // blocks stored compressed
  uint64_t compress_verbatim_blocks = 0;  // blocks stored verbatim
  uint64_t compress_expanded_blocks = 0;  // blocks decompressed on read

  // after - before for every monotonic counter; qos_peak_queue carries the
  // `after` high-water mark unchanged.
  static ImageStats Delta(const ImageStats& after, const ImageStats& before);
};

// Exports every ImageStats field into a metrics node (one counter each).
void ExportImageStats(const ImageStats& s, obs::Metrics& node);

class Image {
 public:
  // Creates the image: generates a master key, formats the LUKS-like
  // header under `passphrase`, persists image metadata.
  static sim::Task<Result<std::shared_ptr<Image>>> Create(
      rados::Cluster& cluster, const std::string& name,
      const std::string& passphrase, const ImageOptions& options);

  // Opens an existing image, unlocking the header with `passphrase`.
  // `writeback`, `qos_scheduler`, `qos`, and `iv_cache` are client-side
  // runtime policy (not persisted): pass a custom write-back config to
  // e.g. disable coalescing, a shared qos::Scheduler + QosPolicy to make
  // this open a tenant of a multi-image dispatch queue, and an IvCacheConfig
  // to keep random-IV metadata rows resident client-side.
  static sim::Task<Result<std::shared_ptr<Image>>> Open(
      rados::Cluster& cluster, const std::string& name,
      const std::string& passphrase, WritebackConfig writeback = {},
      std::shared_ptr<qos::Scheduler> qos_scheduler = nullptr,
      qos::QosPolicy qos = {}, IvCacheConfig iv_cache = {},
      MetaStoreConfig meta_store = {}, obs::Config obs = {},
      rados::TenantSpec tenant = {});

  ~Image();

  // Flushes the write-back buffer and the metadata-plane journal, then
  // marks the plane clean — the next Open against the same meta device
  // starts warm. Idempotent: a second Close (or a Close on an image whose
  // open never finished) is a clean no-op. The destructor does NOT run
  // this (device IO needs the scheduler); an image dropped without Close
  // simply leaves the plane dirty, and the next open degrades to cold.
  sim::Task<Status> Close();

  // --- Completion-based async IO (librbd aio_*) ---
  //
  // Any offset/length within the image is valid; no alignment is required.
  // Buffers must stay alive until the completion resolves. Concurrent
  // requests touching overlapping block ranges apply in submission order
  // (per-object block-range guards in the write-back layer); disjoint
  // ranges run concurrently. A completed write may still sit in the
  // volatile write-back buffer — reads observe it, but AioFlush is the
  // durability barrier, exactly like a disk write cache.
  void AioReadv(std::vector<MutByteSpan> iov, uint64_t offset, CompletionPtr c,
                objstore::SnapId snap = objstore::kHeadSnap);
  void AioWritev(std::vector<ByteSpan> iov, uint64_t offset, CompletionPtr c);
  void AioRead(MutByteSpan buf, uint64_t offset, CompletionPtr c,
               objstore::SnapId snap = objstore::kHeadSnap);
  void AioWrite(ByteSpan buf, uint64_t offset, CompletionPtr c);
  // Discard rounds inward to whole 4 KiB blocks (TRIM granularity); a full
  // object range is removed outright when no snapshots pin it.
  void AioDiscard(uint64_t offset, uint64_t length, CompletionPtr c);
  // Write-zeroes zeroes the exact byte range: whole blocks are cleared with
  // kZero, partial edges merge zeros via RMW in the same transaction.
  void AioWriteZeroes(uint64_t offset, uint64_t length, CompletionPtr c);
  // Resolves once every write-class request issued before it completed.
  void AioFlush(CompletionPtr c);

  // --- Coroutine sugar over the aio path ---
  sim::Task<Status> Write(uint64_t offset, ByteSpan data);
  sim::Task<Result<Bytes>> Read(uint64_t offset, uint64_t length,
                                objstore::SnapId snap = objstore::kHeadSnap);
  sim::Task<Status> Writev(std::vector<ByteSpan> iov, uint64_t offset);
  sim::Task<Status> Readv(std::vector<MutByteSpan> iov, uint64_t offset,
                          objstore::SnapId snap = objstore::kHeadSnap);
  sim::Task<Status> Discard(uint64_t offset, uint64_t length);
  sim::Task<Status> WriteZeroes(uint64_t offset, uint64_t length);
  sim::Task<Status> Flush();

  // Takes a snapshot; subsequent overwrites preserve this point in time.
  sim::Task<Result<uint64_t>> SnapCreate(const std::string& snap_name);

  uint64_t size() const { return options_.size; }
  uint64_t object_size() const { return options_.object_size; }
  uint64_t blocks_per_object() const {
    return options_.object_size / core::kBlockSize;
  }
  // Effective stripe geometry (defaults resolve to the contiguous layout).
  uint64_t stripe_unit() const {
    return options_.stripe_unit != 0 ? options_.stripe_unit
                                     : options_.object_size;
  }
  uint64_t stripe_count() const {
    return options_.stripe_count != 0 ? options_.stripe_count : 1;
  }

  // Striping map: where image byte `off` lives and how many bytes are
  // contiguous there before the layout jumps to another object (or to a
  // non-adjacent offset of the same object).
  struct StripeRun {
    uint64_t object_no;
    uint64_t in_obj;  // byte offset within the object
    uint64_t run;     // contiguous bytes available at in_obj
  };
  StripeRun MapOffset(uint64_t off) const;
  const core::EncryptionSpec& spec() const { return options_.enc; }
  const std::string& name() const { return name_; }
  // Snapshot of the image's IO counters; the qos_* fields are pulled from
  // the shared scheduler's per-tenant stats at call time.
  ImageStats stats() const;
  const Writeback& writeback() const { return *writeback_; }
  const IvCache& iv_cache() const { return *iv_cache_; }
  const TrimState& trim_state() const { return *trim_state_; }
  // The persistent metadata plane, or null (disabled / passthrough).
  MetaStore* meta_store() const { return meta_store_.get(); }
  // Observability plane (always present; disabled = null trace contexts).
  obs::Plane& obs() const { return *obs_plane_; }
  // Full metrics snapshot: image counters, write-back/qos/obs state, the
  // cluster's store+device totals, and the sim core model — the one
  // walkable tree replacing per-layer stats plumbing.
  void ExportMetrics(obs::Metrics& root) const;
  rados::Cluster& cluster() const { return cluster_; }
  // IoCtx carrying this image's cluster-QoS tenant tag. All image-issued
  // RADOS ops must go through this (not cluster().ioctx()) so mClock can
  // attribute them.
  rados::IoCtx io() const { return cluster_.ioctx(options_.tenant.id); }
  qos::Scheduler* qos_scheduler() const {
    return options_.qos_scheduler.get();
  }
  qos::TenantId qos_tenant() const { return qos_tenant_; }
  const std::deque<std::pair<uint64_t, std::string>>& snapshots() const {
    return snaps_;
  }

  // Object name for a given object number (tests/examples).
  std::string ObjectName(uint64_t object_no) const;

 private:
  friend class ImageRequest;
  friend class Writeback;
  friend class TrimState;
  friend class MetaStore;

  Image(rados::Cluster& cluster, std::string name, ImageOptions options);

  sim::Task<Status> PersistMetadata();
  std::string HeaderObject() const { return "rbd_header." + name_; }
  objstore::SnapContext SnapContext() const;

  // Where write paths should capture the metadata rows MakeWrite persists:
  // `rows` when the IV cache wants them, null (skip the copy) otherwise.
  core::IvRows* IvCapture(core::IvRows* rows) const {
    return iv_cache_->enabled() && options_.enc.NeedsMetadata() ? rows
                                                                : nullptr;
  }

  // Per-object state priming for the datapath: warm-loads the object's
  // persisted IV rows off the metadata plane (once per object), then
  // Ensures its discard bitmap (served from the plane on a warm open,
  // from the store otherwise). Every datapath site uses this except
  // Writeback::ReadBlock, which Ensures the bitmap only and so warms no IV
  // rows for stage-creation reads; switching it moves the clock of
  // plane-on staging flows, so it waits for a declared rebaseline.
  // Attributes its store round-trips to the request's kStore stage.
  sim::Task<Status> EnsureObjectState(uint64_t object_no,
                                      obs::TraceContext* trace = nullptr);

  // The one client-CPU charge site: `cipher` ns under a kCrypto span, then
  // `codec` ns (if any) under a kCompress span, both on the core object
  // `oid` maps to. With the core model off ChargeCpu is a plain Sleep, so
  // both modes run this same line; only Scheduler::ReserveCpu differs.
  // A null `trace` records no spans (write-back work is attributed by the
  // request that triggered it).
  static sim::Task<void> ChargeClientCpu(obs::TraceContext* trace,
                                         const std::string& oid,
                                         sim::SimTime cipher,
                                         sim::SimTime codec);

  // The datapath's one read path and one commit path. Callers keep what
  // differs between sites: holds, staged overlays, the bitmap they thread,
  // cache puts, and where the client CPU lands.
  struct ExtentRead {  // an extent of one object and its plaintext buffer
    core::ObjectExtent ext;
    MutByteSpan out;
  };
  struct ReadWork {  // blocks decrypted and, of those, expanded
    size_t decrypted_blocks = 0;
    uint64_t expanded_blocks = 0;
  };
  // Plans each extent against `cache` (null for snapshot reads), batches
  // them into ONE read transaction (none when every plan zero-fills),
  // reads zeros for a never-written object, and decrypts each slice with
  // the verified discard bitmap `zeros` (may be null). Charges nothing.
  sim::Task<Result<ReadWork>> ReadExtents(const std::string& oid,
                                          std::span<const ExtentRead> reads,
                                          IvCache* cache,
                                          const core::DiscardBitmap* zeros,
                                          objstore::SnapId snap,
                                          obs::TraceContext* trace);
  // Charges `work` on `oid`'s core; no event when nothing was decrypted.
  sim::Task<void> ChargeRead(obs::TraceContext* trace, const std::string& oid,
                             ReadWork work) const;

  // Before a request mutates an object: EnsureObjectState and, before the
  // session's first store mutation, the plane's dirty mark (write-through,
  // so a crash cold-starts the next open).
  sim::Task<Status> PrepareMutation(uint64_t object_no,
                                    obs::TraceContext* trace);
  struct CpuCost {  // client CPU charged between bitmap stage and apply
    sim::SimTime cipher = 0;
    sim::SimTime codec = 0;
  };
  // One atomic per-object mutation (§3.1): stages the bitmap update
  // (`written` blocks go live, `trimmed` ones zero-legit) into `txn`,
  // charges `cpu` if set, applies `txn` under a kStore span and commits
  // the bitmap (a failed apply aborts it).
  sim::Task<Status> CommitObjectTxn(const std::string& oid, uint64_t object_no,
                                    objstore::Transaction txn,
                                    const BlockRuns& written,
                                    const BlockRuns& trimmed,
                                    obs::TraceContext* trace,
                                    std::optional<CpuCost> cpu = {});
  // Commits the plane's write-behind journal once enough rows pend (one
  // WAL frame per batch); runs at datapath request ends.
  sim::Task<Status> MaybeFlushJournal();

  // Flush ordering: write-class requests take a ticket at submit time and
  // retire it on completion; a flush barrier resolves once no ticket below
  // it is outstanding.
  uint64_t BeginWriteIo();
  void EndWriteIo(uint64_t seq);
  bool WritesRetiredBelow(uint64_t barrier) const;
  void AddFlushWaiter(uint64_t barrier, sim::Gate* gate);

  rados::Cluster& cluster_;
  std::string name_;
  ImageOptions options_;
  std::unique_ptr<core::EncryptionFormat> format_;
  std::unique_ptr<Writeback> writeback_;
  std::unique_ptr<IvCache> iv_cache_;
  std::unique_ptr<TrimState> trim_state_;
  std::unique_ptr<MetaStore> meta_store_;
  std::unique_ptr<obs::Plane> obs_plane_;
  core::LuksHeader luks_;
  bool encrypted_ = false;
  bool closed_ = false;
  std::deque<std::pair<uint64_t, std::string>> snaps_;  // newest first
  ImageStats stats_;
  qos::TenantId qos_tenant_ = 0;  // valid while options_.qos_scheduler set

  uint64_t next_write_seq_ = 0;
  std::set<uint64_t> inflight_writes_;
  std::vector<std::pair<uint64_t, sim::Gate*>> flush_waiters_;
};

}  // namespace vde::rbd
