#include "store/store.h"

#include <unistd.h>

#include <stdexcept>

#include "obs/obs.h"
#include "util/hash.h"

namespace psph::store {

namespace {

namespace fs = std::filesystem;

// Store observability: load/save latency spans (arg = payload bytes) plus
// counters mirroring StoreStats so the trace is self-contained even when
// the caller never prints stats(). hit_rate is cumulative over the process.
obs::Counter g_obs_hits("store.hits");
obs::Counter g_obs_misses("store.misses");
obs::Counter g_obs_writes("store.writes");
obs::Counter g_obs_corrupt("store.corrupt");
obs::Gauge g_obs_hit_rate("store.hit_rate");

// Independent seeds give two 64-bit digests over the same blob; together
// they address 2^128 states, making accidental collisions negligible (and
// load() still verifies the full key blob, so even a collision is safe).
constexpr std::uint64_t kSeedHi = 0x5bd1e995u;
constexpr std::uint64_t kSeedLo = 0x27d4eb2fu;

}  // namespace

std::string CacheKey::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t word = i < 8 ? hi : lo;
    const int shift = 8 * (7 - (i % 8));
    const std::uint8_t byte = static_cast<std::uint8_t>(word >> shift);
    out[2 * i] = digits[byte >> 4];
    out[2 * i + 1] = digits[byte & 0xf];
  }
  return out;
}

CacheKeyBuilder::CacheKeyBuilder(const std::string& query_kind) {
  writer_.u16(kFormatVersion);
  writer_.str(query_kind);
}

CacheKeyBuilder& CacheKeyBuilder::param(std::int64_t value) {
  writer_.u8(0x01);  // tag bytes keep (1, "x") distinct from ("1x") etc.
  writer_.i64(value);
  return *this;
}

CacheKeyBuilder& CacheKeyBuilder::param_string(const std::string& value) {
  writer_.u8(0x02);
  writer_.str(value);
  return *this;
}

CacheKeyBuilder& CacheKeyBuilder::complex(
    const topology::SimplicialComplex& k) {
  writer_.u8(0x03);
  encode_complex(writer_, k);
  return *this;
}

CacheKeyBuilder& CacheKeyBuilder::raw(const std::vector<std::uint8_t>& bytes) {
  writer_.u8(0x04);
  writer_.blob(bytes.data(), bytes.size());
  return *this;
}

CacheKey CacheKeyBuilder::key() const {
  const std::vector<std::uint8_t>& blob = writer_.bytes();
  CacheKey key;
  key.hi = util::hash_bytes(blob.data(), blob.size(), kSeedHi);
  key.lo = util::hash_bytes(blob.data(), blob.size(), kSeedLo);
  return key;
}

ResultStore::ResultStore(fs::path root, std::shared_ptr<FsOps> fs)
    : root_(std::move(root)), fs_(fs ? std::move(fs) : FsOps::real()) {
  if (fs::exists(root_) && !fs::is_directory(root_)) {
    throw std::runtime_error("result store root is not a directory: " +
                             root_.string());
  }
  fs::create_directories(root_ / "objects");
  fs::create_directories(root_ / "tmp");
}

fs::path ResultStore::entry_path(const CacheKey& key) const {
  const std::string hex = key.hex();
  return root_ / "objects" / hex.substr(0, 2) / hex.substr(2, 2) /
         (hex + ".psph");
}

void ResultStore::note_outcome(bool hit) {
  if (!obs::enabled()) return;
  if (hit) {
    g_obs_hits.add(1);
  } else {
    g_obs_misses.add(1);
  }
  const std::uint64_t hits = hits_.load(std::memory_order_relaxed);
  const std::uint64_t misses = misses_.load(std::memory_order_relaxed);
  const std::uint64_t lookups = hits + misses;
  if (lookups != 0) {
    g_obs_hit_rate.set(static_cast<double>(hits) /
                       static_cast<double>(lookups));
  }
}

std::optional<std::vector<std::uint8_t>> ResultStore::load(
    const CacheKeyBuilder& key) {
  obs::SpanTimer span("store.load");
  const fs::path path = entry_path(key.key());
  std::optional<std::vector<std::uint8_t>> file = fs_->read_file(path);
  if (!file.has_value()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    note_outcome(false);
    return std::nullopt;
  }
  bytes_read_.fetch_add(file->size(), std::memory_order_relaxed);
  try {
    const std::vector<std::uint8_t> payload =
        unseal(*file, PayloadKind::kCacheEntry);
    ByteReader in(payload);
    const std::vector<std::uint8_t> stored_blob = in.blob();
    std::vector<std::uint8_t> result = in.blob();
    in.expect_done("cache entry");
    if (stored_blob != key.blob()) {
      // Hash collision or foreign entry: treat as a miss, never as truth.
      corrupt_.fetch_add(1, std::memory_order_relaxed);
      misses_.fetch_add(1, std::memory_order_relaxed);
      if (obs::enabled()) g_obs_corrupt.add(1);
      note_outcome(false);
      return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    note_outcome(true);
    return result;
  } catch (const SerializationError&) {
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) g_obs_corrupt.add(1);
    note_outcome(false);
    return std::nullopt;
  }
}

bool ResultStore::contains(const CacheKeyBuilder& key) {
  return load(key).has_value();
}

void ResultStore::save(const CacheKeyBuilder& key,
                       const std::vector<std::uint8_t>& result_bytes) {
  obs::SpanTimer span("store.save",
                      static_cast<std::int64_t>(result_bytes.size()));
  ByteWriter payload;
  payload.blob(key.blob().data(), key.blob().size());
  payload.blob(result_bytes.data(), result_bytes.size());
  const std::vector<std::uint8_t> sealed =
      seal(PayloadKind::kCacheEntry, payload.bytes());

  const fs::path final_path = entry_path(key.key());
  fs::create_directories(final_path.parent_path());

  // Unique temp name per (process, process-wide sequence) so concurrent
  // writers never write through each other's handle — the sequence must be
  // global, not per-store: two ResultStore instances sharing one root would
  // otherwise collide on (key, pid, 0) and rename each other's file away.
  static std::atomic<std::uint64_t> g_tmp_sequence{0};
  const std::uint64_t sequence =
      g_tmp_sequence.fetch_add(1, std::memory_order_relaxed);
  const fs::path tmp_path =
      root_ / "tmp" /
      (key.key().hex() + "." + std::to_string(::getpid()) + "." +
       std::to_string(sequence));
  // Crash-safe publication: the temp write fsyncs the bytes, the rename
  // makes them visible atomically, and the directory fsync makes the rename
  // itself durable. Readers see either no entry or the whole entry — even
  // across a power cut.
  try {
    fs_->write_file(tmp_path, sealed.data(), sealed.size());
    // Advisory cross-process serialization of the publish step: rename is
    // atomic on its own, but N daemons sharing one root would otherwise
    // interleave rename+dir-fsync pairs, leaving a window where a crash
    // strands a rename that no surviving process ever fsyncs. The lock
    // covers only rename+fsync — the (slow) temp write stays concurrent.
    FileLock publish_lock(*fs_, root_ / "lock");
    fs_->rename(tmp_path, final_path);
    fs_->fsync_dir(final_path.parent_path());
  } catch (...) {
    // A failed write or rename leaves the temp file unpublished: remove it
    // (best effort; after a successful rename there is nothing to remove).
    std::error_code ignored;
    fs::remove(tmp_path, ignored);
    throw;
  }
  writes_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(sealed.size(), std::memory_order_relaxed);
  if (obs::enabled()) g_obs_writes.add(1);
}

StoreStats ResultStore::stats() const {
  StoreStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.writes = writes_.load(std::memory_order_relaxed);
  stats.corrupt_entries = corrupt_.load(std::memory_order_relaxed);
  stats.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  stats.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace psph::store
