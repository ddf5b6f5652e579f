// Closed-loop wire clients over loopback: one blocking connection and one
// request in flight per client, GET and PUT timed separately, and a
// read-your-writes check on every GET.

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "skute/obs/trace.h"

namespace skutebench {

namespace {

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Buffered CRLF-line and fixed-length reads over a blocking socket.
class Reader {
 public:
  explicit Reader(int fd) : fd_(fd) {}
  bool Line(std::string* line) {
    for (;;) {
      const size_t crlf = buf_.find("\r\n", pos_);
      if (crlf != std::string::npos) {
        line->assign(buf_, pos_, crlf - pos_);
        pos_ = crlf + 2;
        return true;
      }
      if (!Fill()) return false;
    }
  }
  bool Bytes(size_t n, std::string* out) {
    while (buf_.size() - pos_ < n) {
      if (!Fill()) return false;
    }
    out->assign(buf_, pos_, n);
    pos_ += n;
    return true;
  }

 private:
  bool Fill() {
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buf_.append(chunk, static_cast<size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }
  int fd_;
  std::string buf_;
  size_t pos_ = 0;
};

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{};
  tv.tv_sec = 30;  // a wedged server fails the request, not the run
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

KeyMix::KeyMix(uint64_t seed, int client)
    : state_(seed * 0x2545f4914f6cdd1dull + static_cast<uint64_t>(client)),
      client_(client) {
  cdf_.reserve(kKeys);
  double total = 0.0;
  for (uint32_t i = 0; i < kKeys; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipf);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

KeyMix::Op KeyMix::Next() {
  const double u =
      static_cast<double>(SplitMix(&state_) >> 11) * 0x1.0p-53;
  const double v =
      static_cast<double>(SplitMix(&state_) >> 11) * 0x1.0p-53;
  Op op;
  op.key_index = static_cast<uint32_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  if (op.key_index >= cdf_.size()) op.key_index = cdf_.size() - 1;
  op.put = v < kPutFraction;
  return op;
}

std::string KeyMix::Key(uint32_t index) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "c%d-k%05u", client_ % 10, index % 100000);
  return buf;
}

std::string KeyMix::Value(uint64_t seq) const {
  uint64_t s = (static_cast<uint64_t>(client_) << 48) ^ seq ^ state_;
  std::string v;
  v.reserve(kValueBytes);
  while (v.size() < kValueBytes) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(SplitMix(&s)));
    v.append(buf, 16);
  }
  v.resize(kValueBytes);
  return v;
}

WireLoad::WireLoad(WireOptions options) : options_(std::move(options)) {}

WireLoad::~WireLoad() { Join(); }

void WireLoad::Start() {
  results_.assign(kWireClients, WireClientResult{});
  for (int i = 0; i < kWireClients; ++i) {
    threads_.emplace_back([this, i] { RunClient(i); });
  }
}

void WireLoad::Join() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void WireLoad::RunClient(int index) {
  WireClientResult& r = results_[static_cast<size_t>(index)];
  r.get_us.reserve(options_.ops_per_client);
  r.put_us.reserve(options_.ops_per_client / 3);
  KeyMix mix(options_.seed, index);
  const auto fail = [&r](const std::string& what) {
    if (r.first_failure.empty()) r.first_failure = what;
  };
  const int fd = Connect(options_.port);
  if (fd < 0) {
    ++r.transport_errors;
    r.not_attempted = options_.ops_per_client;
    fail("connect failed");
    done_.fetch_add(1, std::memory_order_release);
    return;
  }
  Reader reader(fd);
  std::string request, line, payload;
  r.first_send = NowSeconds();
  for (uint64_t n = 0; n < options_.ops_per_client; ++n) {
    const KeyMix::Op op = mix.Next();
    const std::string key = mix.Key(op.key_index);
    const size_t ring = op.key_index % options_.rings;
    std::string value;
    request.clear();
    if (op.put) {
      value = mix.Value(n);
      request = "PUT " + std::to_string(ring) + " " + key + " " +
                std::to_string(value.size()) + "\r\n" + value + "\r\n";
    } else {
      request = "GET " + std::to_string(ring) + " " + key + "\r\n";
    }
    bool ok = false;
    const double t0 = NowSeconds();
    {
      skute::obs::TraceSpan span("wire", op.put ? "wire.put" : "wire.get");
      ok = SendAll(fd, request) && reader.Line(&line);
      if (ok && !op.put && line.rfind("VALUE ", 0) == 0) {
        const size_t sp = line.rfind(' ');
        const size_t len = std::strtoull(line.c_str() + sp + 1, nullptr, 10);
        std::string end;
        ok = len <= (1u << 20) && reader.Bytes(len + 2, &payload) &&
             reader.Line(&end) && end == "END";
        payload.resize(std::min(len, payload.size()));
      }
    }
    const double t1 = NowSeconds();
    ++r.ops;
    if (!ok) {
      ++r.transport_errors;
      r.not_attempted = options_.ops_per_client - n - 1;
      fail("transport error on request " + std::to_string(n));
      break;
    }
    (op.put ? r.put_us : r.get_us).push_back((t1 - t0) * 1e6);
    r.last_reply = t1;
    if (line.rfind("ERROR", 0) == 0) {
      ++r.error_replies;
      fail("ERROR reply: " + line);
      continue;
    }
    const auto written = r.last_written.find(op.key_index);
    if (op.put) {
      if (line == "STORED") {
        ++r.stored;
        r.last_written[op.key_index] = std::move(value);
      } else {
        ++r.error_replies;
        fail("unexpected PUT reply: " + line);
      }
    } else if (line == "NOT_FOUND") {
      if (written != r.last_written.end()) {
        ++r.ryw_violations;
        fail("NOT_FOUND for written key " + key);
      }
    } else if (line.rfind("VALUE ", 0) != 0) {
      ++r.error_replies;
      fail("unexpected GET reply: " + line);
    } else {
      if (written == r.last_written.end() || written->second != payload) {
        ++r.ryw_violations;
        fail("GET " + key + " returned a value other than the last write");
      }
    }
  }
  ::close(fd);
  done_.fetch_add(1, std::memory_order_release);
}

}  // namespace skutebench
