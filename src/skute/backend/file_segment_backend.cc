#include "skute/backend/file_segment_backend.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "skute/io/io_pool.h"
#include "skute/obs/trace.h"
#include "skute/storage/wal.h"

namespace skute {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSegmentSuffix = ".seg";

std::string SegmentName(uint32_t id) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%06u%s", id, kSegmentSuffix);
  return buf;
}

/// Parses "000042.seg" -> 42; false for anything else (including
/// all-digit stems too long to be an id we wrote — std::stoul on those
/// would throw out of a noexcept-shaped recovery path).
bool ParseSegmentName(const std::string& name, uint32_t* id) {
  const size_t suffix_len = std::strlen(kSegmentSuffix);
  if (name.size() <= suffix_len) return false;
  if (name.compare(name.size() - suffix_len, suffix_len, kSegmentSuffix) !=
      0) {
    return false;
  }
  const std::string stem = name.substr(0, name.size() - suffix_len);
  if (stem.empty() || stem.size() > 9 ||
      stem.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *id = static_cast<uint32_t>(std::stoul(stem));
  return true;
}

}  // namespace

FileSegmentBackend::FileSegmentBackend(std::string dir,
                                       uint64_t segment_bytes, bool fsync)
    : dir_(std::move(dir)),
      segment_bytes_(segment_bytes == 0 ? 1 : segment_bytes),
      fsync_every_append_(fsync) {}

FileSegmentBackend::~FileSegmentBackend() {
  // Normal shutdown: close the handle, keep the files (that is the whole
  // point of this backend — Open() recovers them).
  if (active_ != nullptr) std::fclose(active_);
}

Result<std::unique_ptr<FileSegmentBackend>> FileSegmentBackend::Open(
    std::string dir, uint64_t segment_bytes, bool fsync_every_append) {
  if (dir.empty()) {
    return Status::InvalidArgument("file-segment backend needs a data dir");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create backend dir " + dir + ": " +
                            ec.message());
  }
  std::unique_ptr<FileSegmentBackend> backend(
      new FileSegmentBackend(std::move(dir), segment_bytes,
                             fsync_every_append));
  SKUTE_RETURN_IF_ERROR(backend->Recover());
  return backend;
}

std::string FileSegmentBackend::SegmentPath(uint32_t id) const {
  return (fs::path(dir_) / SegmentName(id)).string();
}

size_t FileSegmentBackend::segment_count() const {
  size_t n = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    uint32_t id = 0;
    if (ParseSegmentName(entry.path().filename().string(), &id)) ++n;
  }
  return n;
}

Status FileSegmentBackend::Recover() {
  obs::TraceSpan span("io", "segment.recover");
  std::vector<uint32_t> ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    uint32_t id = 0;
    if (ParseSegmentName(entry.path().filename().string(), &id)) {
      ids.push_back(id);
    }
  }
  if (ec) {
    return Status::Internal("cannot list backend dir " + dir_ + ": " +
                            ec.message());
  }
  std::sort(ids.begin(), ids.end());

  uint32_t max_id = 0;
  uint64_t last_segment_size = 0;
  bool last_segment_clean = false;
  for (const uint32_t id : ids) {
    max_id = std::max(max_id, id);
    std::ifstream in(SegmentPath(id), std::ios::binary);
    if (!in.is_open()) {
      // An unreadable segment must not masquerade as a clean empty log
      // (its records would silently vanish — and, were it the tail,
      // appends would restart at offset 0 of a nonzero file).
      return Status::Internal("cannot read segment " + SegmentPath(id));
    }
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    io_.bytes_read += bytes.size();
    disk_bytes_ += bytes.size();
    last_segment_size = bytes.size();
    WalReader reader(bytes);
    for (;;) {
      const uint64_t record_start = reader.offset();
      auto record = reader.Next();
      if (!record.ok()) {
        if (record.status().IsInternal()) {
          // Damaged record: keep the intact prefix, ignore the tail of
          // this segment (and, by the sort order, later appends landed in
          // later segments — those replay normally).
          corrupt_tail_ = true;
          last_segment_clean = false;
        } else {
          last_segment_clean = true;  // clean end-of-log
        }
        break;
      }
      sequence_ = std::max(sequence_, record->sequence);
      ++records_recovered_;
      auto it = index_.find(record->key);
      if (record->op == WalOp::kDelete) {
        if (it != index_.end()) {
          live_bytes_ -= it->second.entry_bytes;
          index_.erase(it);
        }
        continue;
      }
      ValueLoc loc;
      loc.segment = id;
      loc.offset = record_start + WalRecordValueOffset(record->key);
      loc.length = static_cast<uint32_t>(record->value.size());
      loc.entry_bytes =
          static_cast<uint32_t>(record->key.size() + record->value.size());
      if (it != index_.end()) {
        live_bytes_ -= it->second.entry_bytes;
        it->second = loc;
      } else {
        index_.emplace(record->key, loc);
      }
      live_bytes_ += loc.entry_bytes;
    }
  }

  if (ids.empty()) return OpenActive(0, 0);
  // A clean shutdown's verified-intact tail segment is reopened for
  // append (a reopen must not grow the segment count forever); any
  // damage anywhere means a fresh segment — never append after a
  // (possibly torn) tail.
  if (!corrupt_tail_ && last_segment_clean &&
      last_segment_size < segment_bytes_) {
    return OpenActive(max_id, last_segment_size);
  }
  return OpenActive(max_id + 1, 0);
}

Status FileSegmentBackend::OpenActive(uint32_t id, uint64_t size) {
  if (active_ != nullptr) {
    std::fclose(active_);
    active_ = nullptr;
  }
  active_ = std::fopen(SegmentPath(id).c_str(), "ab");
  if (active_ == nullptr) {
    return Status::Internal("cannot open segment " + SegmentPath(id));
  }
  active_id_ = id;
  active_size_ = size;
  return Status::OK();
}

Status FileSegmentBackend::AppendRecord(WalOpByte op_tag,
                                        std::string_view key,
                                        std::string_view value,
                                        ValueLoc* loc) {
  std::string record;
  EncodeWalRecord(&record, static_cast<WalOp>(op_tag), ++sequence_, key,
                  value);

  if (loc != nullptr) {
    loc->segment = active_id_;
    loc->offset = active_size_ + WalRecordValueOffset(key);
    loc->length = static_cast<uint32_t>(value.size());
    loc->entry_bytes = static_cast<uint32_t>(key.size() + value.size());
  }

  if (std::fwrite(record.data(), 1, record.size(), active_) !=
      record.size()) {
    // Bytes may have partially landed: active_size_ no longer matches
    // the physical file, so future offsets computed from it would index
    // garbage. Abandon this segment for a fresh one before failing.
    (void)OpenActive(active_id_ + 1, 0);
    return Status::Internal("short write on segment; rotated");
  }
  // Push to the OS on every append so cached read handles observe the
  // record; fsync only when configured.
  if (std::fflush(active_) != 0) {
    (void)OpenActive(active_id_ + 1, 0);
    return Status::Internal("flush failed on segment; rotated");
  }
  io_.log_bytes_written += record.size();
  io_.bytes_flushed += record.size();
  unsynced_ += record.size();
  disk_bytes_ += record.size();
  if (fsync_every_append_) {
    ::fsync(fileno(active_));
    ++io_.fsyncs;
    unsynced_ = 0;
  } else {
    MaybeSubmitFlush();
  }

  active_size_ += record.size();
  if (active_size_ >= segment_bytes_) {
    SKUTE_RETURN_IF_ERROR(OpenActive(active_id_ + 1, 0));
    MaybeScheduleCompaction();
  }
  return Status::OK();
}

uint64_t FileSegmentBackend::LiveFrameBytes() const {
  // entry_bytes is key+value; every live record would additionally carry
  // one frame of WAL overhead after a perfect rewrite.
  return live_bytes_ +
         static_cast<uint64_t>(index_.size()) * EncodedWalRecordSize({}, {});
}

void FileSegmentBackend::MaybeScheduleCompaction() {
  if (compact_dead_ratio_ <= 0.0 || io_pool() == nullptr) return;
  if (compaction_scheduled_) return;
  if (disk_bytes_ == 0) return;
  const uint64_t live = LiveFrameBytes();
  const uint64_t dead = disk_bytes_ > live ? disk_bytes_ - live : 0;
  if (static_cast<double>(dead) <
      compact_dead_ratio_ * static_cast<double>(disk_bytes_)) {
    return;
  }
  compaction_scheduled_ = true;
  io_pool()->Submit(this, [this] {
    compaction_scheduled_ = false;
    (void)Compact();
  });
}

Status FileSegmentBackend::Put(std::string_view key, std::string_view value) {
  ++io_.puts;
  ValueLoc loc;
  SKUTE_RETURN_IF_ERROR(
      AppendRecord(static_cast<WalOpByte>(WalOp::kPut), key, value, &loc));
  auto it = index_.find(key);
  if (it != index_.end()) {
    live_bytes_ -= it->second.entry_bytes;
    it->second = loc;
  } else {
    index_.emplace(std::string(key), loc);
  }
  live_bytes_ += loc.entry_bytes;
  return Status::OK();
}

Status FileSegmentBackend::Delete(std::string_view key) {
  ++io_.deletes;
  auto it = index_.find(key);
  if (it == index_.end()) return Status::NotFound("key not found");
  SKUTE_RETURN_IF_ERROR(AppendRecord(
      static_cast<WalOpByte>(WalOp::kDelete), key, {}, nullptr));
  live_bytes_ -= it->second.entry_bytes;
  index_.erase(it);
  return Status::OK();
}

bool FileSegmentBackend::Contains(std::string_view key) const {
  return index_.find(key) != index_.end();
}

std::ifstream* FileSegmentBackend::ReaderFor(uint32_t segment) const {
  if (!reader_valid_ || reader_segment_ != segment) {
    reader_.close();
    reader_.clear();
    reader_.open(SegmentPath(segment), std::ios::binary);
    reader_segment_ = segment;
    reader_valid_ = reader_.good();
    if (!reader_valid_) return nullptr;
  }
  // The handle may have hit EOF on a previous read, and the active
  // segment grows underneath it; clear state so seekg works.
  reader_.clear();
  return &reader_;
}

Result<std::string> FileSegmentBackend::ReadValue(const ValueLoc& loc) const {
  std::ifstream* in = ReaderFor(loc.segment);
  if (in == nullptr) {
    return Status::Internal("missing segment " + SegmentPath(loc.segment));
  }
  std::string value(loc.length, '\0');
  in->seekg(static_cast<std::streamoff>(loc.offset));
  in->read(value.data(), static_cast<std::streamsize>(loc.length));
  if (in->gcount() != static_cast<std::streamsize>(loc.length)) {
    return Status::Internal("short read in segment " +
                            SegmentPath(loc.segment));
  }
  io_.bytes_read += loc.length;
  return value;
}

Result<std::string> FileSegmentBackend::Get(std::string_view key) const {
  ++io_.gets;
  const auto it = index_.find(key);
  if (it == index_.end()) return Status::NotFound("key not found");
  return ReadValue(it->second);
}

std::vector<std::pair<std::string, std::string>> FileSegmentBackend::Scan(
    std::string_view start_key, size_t limit) const {
  ++io_.scans;
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = index_.lower_bound(start_key);
       it != index_.end() && out.size() < limit; ++it) {
    auto value = ReadValue(it->second);
    if (!value.ok()) continue;  // damaged file mid-scan: skip the entry
    out.emplace_back(it->first, std::move(value).value());
  }
  return out;
}

Status FileSegmentBackend::Flush() {
  obs::TraceSpan span("io", "segment.fsync", unsynced_);
  if (active_ != nullptr) {
    // Appends already fflush'd (bytes_flushed counts them there); Flush
    // only adds the fsync.
    std::fflush(active_);
    ::fsync(fileno(active_));
    ++io_.fsyncs;
    unsynced_ = 0;
  }
  return Status::OK();
}

Status FileSegmentBackend::Compact() {
  obs::TraceSpan span("io", "segment.compact", disk_bytes_);
  std::vector<uint32_t> old_ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    uint32_t id = 0;
    if (ParseSegmentName(entry.path().filename().string(), &id)) {
      old_ids.push_back(id);
    }
  }
  if (ec) {
    return Status::Internal("cannot list backend dir " + dir_ + ": " +
                            ec.message());
  }
  if (old_ids.empty()) return Status::OK();
  std::sort(old_ids.begin(), old_ids.end());

  // The active segment is among the rewritten ones; close its handle.
  if (active_ != nullptr) {
    std::fflush(active_);
    std::fclose(active_);
    active_ = nullptr;
  }

  // Phase 1: rewrite the live set (key order) into fresh segments with
  // ids above every existing one, fsyncing each before moving on. Until
  // phase 2 deletes anything, a crash leaves replay correct: the new
  // segments hold only live puts with the highest ids, so replaying them
  // after the full old history reproduces the same state.
  const uint32_t new_base = old_ids.back() + 1;
  uint32_t out_id = new_base;
  uint64_t out_size = 0;
  uint64_t written = 0;
  std::FILE* out = nullptr;
  std::map<std::string, ValueLoc, std::less<>> new_index;
  Status failure = Status::OK();
  const auto close_out = [&] {
    if (out == nullptr) return;
    std::fflush(out);
    ::fsync(fileno(out));
    ++io_.fsyncs;
    std::fclose(out);
    out = nullptr;
  };
  for (const auto& [key, loc] : index_) {
    auto value = ReadValue(loc);
    if (!value.ok()) {
      failure = value.status();
      break;
    }
    if (out == nullptr) {
      out = std::fopen(SegmentPath(out_id).c_str(), "wb");
      if (out == nullptr) {
        failure = Status::Internal("cannot open compaction segment " +
                                   SegmentPath(out_id));
        break;
      }
      out_size = 0;
    }
    std::string record;
    EncodeWalRecord(&record, WalOp::kPut, ++sequence_, key, *value);
    ValueLoc new_loc;
    new_loc.segment = out_id;
    new_loc.offset = out_size + WalRecordValueOffset(key);
    new_loc.length = static_cast<uint32_t>(value->size());
    new_loc.entry_bytes =
        static_cast<uint32_t>(key.size() + value->size());
    if (std::fwrite(record.data(), 1, record.size(), out) != record.size()) {
      failure = Status::Internal("short write during compaction");
      break;
    }
    out_size += record.size();
    written += record.size();
    new_index.emplace(key, new_loc);
    if (out_size >= segment_bytes_) {
      close_out();
      ++out_id;
    }
  }
  close_out();
  if (!failure.ok()) {
    // Abort: the old segments are untouched and remain the truth. Remove
    // whatever partial rewrite landed (safe either way — partial new
    // segments replay to a subset of the live set *after* the history
    // they came from) and resume appends above everything.
    for (uint32_t id = new_base; id <= out_id; ++id) {
      fs::remove(SegmentPath(id), ec);
    }
    (void)OpenActive(out_id + 1, 0);
    return failure;
  }

  if (crash_point_ == CompactCrashPoint::kAfterRewrite) {
    // Injected kill: rewrite durable, nothing deleted. The in-memory
    // object is dead; tests reopen the directory.
    crash_point_ = CompactCrashPoint::kNone;
    return Status::Internal("injected crash: after rewrite");
  }

  // Phase 2: delete old segments in ASCENDING id order. If we die midway,
  // a put record can never survive a later delete record that covered it
  // (the put's segment is always removed first), so replaying the
  // remaining segments stays correct in every crash window.
  bool first_deleted = false;
  for (const uint32_t id : old_ids) {
    fs::remove(SegmentPath(id), ec);
    if (!first_deleted &&
        crash_point_ == CompactCrashPoint::kMidDelete) {
      crash_point_ = CompactCrashPoint::kNone;
      return Status::Internal("injected crash: mid delete");
    }
    first_deleted = true;
  }

  DropReadCache();
  index_ = std::move(new_index);
  disk_bytes_ = written;
  io_.bytes_flushed += written;
  io_.compaction_bytes += written;
  ++io_.compactions;
  unsynced_ = 0;  // every new segment was fsynced as it closed
  // Fresh active segment above the compacted ids. out_id is the id after
  // the last *closed* rewrite segment (or new_base when nothing was
  // written); either way it is unused.
  return OpenActive(out_size > 0 && out_size < segment_bytes_ ? out_id + 1
                                                              : out_id,
                    0);
}

void FileSegmentBackend::DropReadCache() const {
  reader_.close();
  reader_.clear();
  reader_valid_ = false;
}

Status FileSegmentBackend::Wipe() {
  if (active_ != nullptr) {
    std::fclose(active_);
    active_ = nullptr;
  }
  DropReadCache();  // the files are about to be deleted
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    uint32_t id = 0;
    if (ParseSegmentName(entry.path().filename().string(), &id)) {
      fs::remove(entry.path(), ec);
    }
  }
  index_.clear();
  live_bytes_ = 0;
  sequence_ = 0;
  records_recovered_ = 0;
  corrupt_tail_ = false;
  disk_bytes_ = 0;
  compaction_scheduled_ = false;
  return OpenActive(0, 0);
}

}  // namespace skute
