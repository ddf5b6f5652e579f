#ifndef SKUTE_BACKEND_IO_STATS_H_
#define SKUTE_BACKEND_IO_STATS_H_

#include <cstdint>

namespace skute {

/// \brief Per-backend I/O counters: what a replica's persistence layer
/// actually did, as opposed to the catalog's logical byte accounting.
///
/// The placement economy prices migration and maintenance; these counters
/// are what lets the benches compare that model against the real cost of
/// the chosen storage backend (log append volume, flush traffic, fsyncs,
/// snapshot streaming for replication).
struct IoStats {
  // Operation counts.
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t deletes = 0;
  uint64_t scans = 0;

  /// Bytes appended to the write-ahead log / active segment.
  uint64_t log_bytes_written = 0;
  /// Bytes pushed from user-space buffers to the OS (flushes).
  uint64_t bytes_flushed = 0;
  /// Value bytes read back from persistent media (file-segment reads).
  uint64_t bytes_read = 0;
  /// Number of fsync(2) calls issued.
  uint64_t fsyncs = 0;

  /// Snapshot streaming volume (replication/migration transfers).
  uint64_t snapshot_bytes_out = 0;
  uint64_t snapshot_bytes_in = 0;

  /// Always 0: replication ships full snapshots only. Kept so the metrics
  /// CSV (`io_delta_bytes` column) and the metrics-registry keys keep
  /// their schema.
  uint64_t delta_bytes_out = 0;
  uint64_t delta_bytes_in = 0;

  /// Group commit: a drain that covered >= 1 pending flush request with a
  /// single fsync counts one group_commit; the requests it absorbed beyond
  /// the first are coalesced_fsyncs (fsyncs the inline path would have
  /// issued but the IoPool did not).
  uint64_t group_commits = 0;
  uint64_t coalesced_fsyncs = 0;

  /// Live bytes rewritten by background segment compaction — the
  /// maintenance I/O the economy can price against transfer cost.
  uint64_t compaction_bytes = 0;
  uint64_t compactions = 0;

  /// Microseconds of emulated disk latency injected by the chaos plane's
  /// slow-disk fault (zero outside chaos runs).
  uint64_t throttle_us = 0;

  uint64_t ops() const { return puts + gets + deletes + scans; }

  void Accumulate(const IoStats& other) {
    puts += other.puts;
    gets += other.gets;
    deletes += other.deletes;
    scans += other.scans;
    log_bytes_written += other.log_bytes_written;
    bytes_flushed += other.bytes_flushed;
    bytes_read += other.bytes_read;
    fsyncs += other.fsyncs;
    snapshot_bytes_out += other.snapshot_bytes_out;
    snapshot_bytes_in += other.snapshot_bytes_in;
    delta_bytes_out += other.delta_bytes_out;
    delta_bytes_in += other.delta_bytes_in;
    group_commits += other.group_commits;
    coalesced_fsyncs += other.coalesced_fsyncs;
    compaction_bytes += other.compaction_bytes;
    compactions += other.compactions;
    throttle_us += other.throttle_us;
  }

  void Clear() { *this = IoStats{}; }
};

}  // namespace skute

#endif  // SKUTE_BACKEND_IO_STATS_H_
