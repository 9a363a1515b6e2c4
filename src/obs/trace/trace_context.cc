#include "obs/trace/trace_context.h"

#include <charconv>
#include <cstdlib>

namespace redoop {
namespace obs {
namespace trace {

namespace {
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;
constexpr const char* kTokenPrefix = "redoop-trace/";
constexpr char kHexDigits[] = "0123456789abcdef";

void WriteIdHex(SpanId id, char* out) {
  for (int i = 15; i >= 0; --i) {
    out[i] = kHexDigits[id & 0xf];
    id >>= 4;
  }
}

/// FNV-1a fed piece by piece: hashing a canonical string's pieces in order
/// equals hashing the string itself.
class CanonicalHash {
 public:
  CanonicalHash& Text(std::string_view s) {
    for (char c : s) {
      h_ ^= static_cast<uint8_t>(c);
      h_ *= kFnvPrime;
    }
    return *this;
  }
  /// A %.*s piece: the text up to its first NUL byte.
  CanonicalHash& PrintfText(std::string_view s) {
    return Text(s.substr(0, s.find('\0')));
  }
  CanonicalHash& Hex(SpanId id) {
    char hex[16];
    WriteIdHex(id, hex);
    return Text(std::string_view(hex, sizeof(hex)));
  }
  CanonicalHash& Dec(int64_t value) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof(buf), value);
    return Text(std::string_view(buf, static_cast<size_t>(r.ptr - buf)));
  }
  uint64_t hash() const { return h_; }
  SpanId Id() const { return h_ != 0 ? h_ : kFnvOffset; }

 private:
  uint64_t h_ = kFnvOffset;
};

}  // namespace

uint64_t Fnv1a64(std::string_view s) { return CanonicalHash().Text(s).hash(); }

SpanId DeriveId(std::string_view canonical) {
  return CanonicalHash().Text(canonical).Id();
}

std::string IdHex(SpanId id) {
  std::string out(16, '0');
  WriteIdHex(id, out.data());
  return out;
}

SpanId TraceIdFor(std::string_view system, std::string_view query) {
  return CanonicalHash().Text("trace:").Text(system).Text("/").Text(query).Id();
}

SpanId WindowSpanId(SpanId trace, int64_t recurrence) {
  return CanonicalHash().Text("window:").Hex(trace).Text(":")
      .Dec(recurrence).Id();
}

SpanId PhaseSpanId(SpanId window_span, std::string_view job,
                   int64_t occurrence, std::string_view kind) {
  return CanonicalHash().Text("phase:").Hex(window_span).Text(":")
      .PrintfText(job).Text("#").Dec(occurrence).Text(":")
      .PrintfText(kind).Id();
}

SpanId TaskSpanId(SpanId trace, int64_t task, int64_t attempt) {
  return CanonicalHash().Text("task:").Hex(trace).Text(":").Dec(task)
      .Text(":").Dec(attempt).Id();
}

SpanId CacheOpSpanId(SpanId trace, std::string_view event_type,
                     std::string_view key, int64_t occurrence) {
  return CanonicalHash().Text("cacheop:").Hex(trace).Text(":")
      .PrintfText(event_type).Text(":").PrintfText(key).Text("#")
      .Dec(occurrence).Id();
}

SpanId PaneSpanId(SpanId trace, int64_t source, int64_t pane,
                  int64_t built_window) {
  return CanonicalHash().Text("pane:").Hex(trace).Text(":S").Dec(source)
      .Text(":P").Dec(pane).Text(":W").Dec(built_window).Id();
}

SpanId FailureSpanId(SpanId trace, int64_t node, int64_t occurrence) {
  return CanonicalHash().Text("failure:").Hex(trace).Text(":N").Dec(node)
      .Text("#").Dec(occurrence).Id();
}

std::string TraceContext::Serialize() const {
  char ids[33];  // <trace16>/<span16>
  WriteIdHex(trace_id, ids);
  ids[16] = '/';
  WriteIdHex(span_id, ids + 17);
  char window_buf[24];
  const auto r =
      std::to_chars(window_buf, window_buf + sizeof(window_buf), window);
  std::string out(kTokenPrefix);
  out.append(ids, sizeof(ids));
  out.push_back('/');
  out.append(window_buf, r.ptr);
  out.push_back('/');
  out.push_back(sampled ? 's' : 'u');
  return out;
}

bool ParseIdHex(std::string_view s, SpanId* out) {
  if (s.size() != 16) return false;
  uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

bool TraceContext::Parse(std::string_view token, TraceContext* out) {
  const std::string_view prefix(kTokenPrefix);
  if (token.substr(0, prefix.size()) != prefix) return false;
  token.remove_prefix(prefix.size());

  const size_t slash1 = token.find('/');
  if (slash1 == std::string_view::npos) return false;
  const size_t slash2 = token.find('/', slash1 + 1);
  if (slash2 == std::string_view::npos) return false;
  const size_t slash3 = token.find('/', slash2 + 1);
  if (slash3 == std::string_view::npos) return false;

  TraceContext parsed;
  if (!ParseIdHex(token.substr(0, slash1), &parsed.trace_id)) return false;
  if (!ParseIdHex(token.substr(slash1 + 1, slash2 - slash1 - 1),
                  &parsed.span_id)) {
    return false;
  }
  const std::string window_str(
      token.substr(slash2 + 1, slash3 - slash2 - 1));
  if (window_str.empty()) return false;
  char* end = nullptr;
  parsed.window = std::strtoll(window_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  const std::string_view flag = token.substr(slash3 + 1);
  if (flag == "s") {
    parsed.sampled = true;
  } else if (flag == "u") {
    parsed.sampled = false;
  } else {
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace trace
}  // namespace obs
}  // namespace redoop
