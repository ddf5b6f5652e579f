#ifndef SKUTE_IO_DURABILITY_OPTIONS_H_
#define SKUTE_IO_DURABILITY_OPTIONS_H_

namespace skute {

/// \brief Tuning of the async durability plane (skute/io): the I/O
/// offload pool and the epoch-end group-committed flush.
///
/// The default keeps the plane off (the pre-durability behaviour): no
/// pool, every backend fsyncs inline. Writes always fan out to every live
/// replica eagerly, pool or not.
struct DurabilityOptions {
  /// Worker threads of the I/O offload pool; 0 = no pool (flushes stay
  /// synchronous inside each backend and nothing group-commits). With a
  /// pool, every write submits its backend for a flush, and all of an
  /// epoch's submissions for one backend collapse into a single fsync at
  /// the epoch's drain point.
  int io_threads = 0;
};

}  // namespace skute

#endif  // SKUTE_IO_DURABILITY_OPTIONS_H_
