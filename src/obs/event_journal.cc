#include "obs/event_journal.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/string_utils.h"
#include "obs/metric_registry.h"

namespace redoop {
namespace obs {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

void AppendInt(int64_t value, std::string* out) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, r.ptr);
}

/// Decimal digits of |value|, plus one for a minus sign.
size_t IntWidth(int64_t value) {
  static constexpr auto kPow10 = [] {
    std::array<uint64_t, 20> p{};
    p[0] = 1;
    for (size_t i = 1; i < p.size(); ++i) p[i] = p[i - 1] * 10;
    return p;
  }();
  // v|1 has v's digit count (no power of ten above 1 is odd) and is never 0.
  const uint64_t v = (value < 0 ? 0 - static_cast<uint64_t>(value)
                                : static_cast<uint64_t>(value)) | 1;
  // floor(log10(2) * bit width) is the digit count or one short of it.
  const int guess = (std::bit_width(v) * 1233) >> 12;
  return static_cast<size_t>(guess) + (v >= kPow10[guess] ? 1 : 0) +
         (value < 0 ? 1 : 0);
}

/// An estimate of ToJson(e).size() for sizing a ToJsonl buffer once: exact
/// for ints and unescaped strings, an upper bound for doubles and (below
/// 1e18) the time. Escaped strings run over it; the buffer then grows.
size_t JsonSizeHint(const Event& e) {
  const double t = std::fabs(e.time());
  size_t n = 28 + e.type().size();  // {"t":,"type":""} + %.6f's fraction.
  n += t < 1e18 ? IntWidth(static_cast<int64_t>(t)) + 1 : 320;
  for (const EventField& f : e.fields()) {
    n += f.key.size() + 4;  // ,"":
    switch (f.kind) {
      case EventField::Kind::kString: n += f.str.size() + 2; break;
      case EventField::Kind::kInt: n += IntWidth(f.i64); break;
      case EventField::Kind::kDouble: n += 13; break;
    }
  }
  return n;
}

}  // namespace

void AppendJsonEscaped(std::string_view s, std::string* out) {
  // Unescaped runs are copied in one append each.
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\t': out->append("\\t"); break;
      case '\r': out->append("\\r"); break;
      default: {
        const char u[6] = {'\\', 'u', '0', '0', kHexDigits[c >> 4],
                           kHexDigits[c & 0xf]};
        out->append(u, sizeof(u));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

namespace {

// Span-boundary keys for atomic flight-recorder eviction. A begin event
// and its end event map to the same key; "" means the event is not a span
// boundary. Task ids are unique per run; job and window keys carry the
// query label so concurrent queries cannot alias.
std::string SpanBeginKey(const Event& e) {
  const std::string& t = e.type();
  if (t == event::kTaskStart) {
    return StringPrintf("task/%lld",
                        static_cast<long long>(e.IntOr("task", -1)));
  }
  if (t == event::kJobStart) {
    return "job/" + e.StrOr("query", "") + "/" + e.StrOr("job", "");
  }
  if (t == event::kWindowOpen) {
    return StringPrintf("window/%s/%lld", e.StrOr("query", "").c_str(),
                        static_cast<long long>(e.IntOr("recurrence", -1)));
  }
  return std::string();
}

std::string SpanEndKey(const Event& e) {
  const std::string& t = e.type();
  if (t == event::kTaskFinish || t == event::kTaskFail) {
    return StringPrintf("task/%lld",
                        static_cast<long long>(e.IntOr("task", -1)));
  }
  if (t == event::kJobFinish) {
    return "job/" + e.StrOr("query", "") + "/" + e.StrOr("job", "");
  }
  if (t == event::kWindowComplete) {
    return StringPrintf("window/%s/%lld", e.StrOr("query", "").c_str(),
                        static_cast<long long>(e.IntOr("recurrence", -1)));
  }
  return std::string();
}

}  // namespace

Event& Event::With(std::string_view key, std::string_view value) {
  EventField f;
  f.key = std::string(key);
  f.kind = EventField::Kind::kString;
  f.str = std::string(value);
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::With(std::string_view key, double value) {
  EventField f;
  f.key = std::string(key);
  f.kind = EventField::Kind::kDouble;
  f.f64 = value;
  fields_.push_back(std::move(f));
  return *this;
}

Event& Event::WithInt(std::string_view key, int64_t value) {
  EventField f;
  f.key = std::string(key);
  f.kind = EventField::Kind::kInt;
  f.i64 = value;
  fields_.push_back(std::move(f));
  return *this;
}

const EventField* Event::Find(std::string_view key) const {
  for (const auto& f : fields_) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

int64_t Event::IntOr(std::string_view key, int64_t fallback) const {
  const EventField* f = Find(key);
  if (f == nullptr) return fallback;
  if (f->kind == EventField::Kind::kInt) return f->i64;
  if (f->kind == EventField::Kind::kDouble) {
    return static_cast<int64_t>(f->f64);
  }
  return fallback;
}

double Event::DoubleOr(std::string_view key, double fallback) const {
  const EventField* f = Find(key);
  if (f == nullptr) return fallback;
  if (f->kind == EventField::Kind::kDouble) return f->f64;
  if (f->kind == EventField::Kind::kInt) return static_cast<double>(f->i64);
  return fallback;
}

std::string Event::StrOr(std::string_view key,
                         std::string_view fallback) const {
  const EventField* f = Find(key);
  if (f == nullptr || f->kind != EventField::Kind::kString) {
    return std::string(fallback);
  }
  return f->str;
}

std::string Event::ToJson() const {
  std::string out;
  AppendJson(&out);
  return out;
}

void Event::AppendJson(std::string* out) const {
  // %.6f for the time, via to_chars (same bytes as printf in the C locale).
  char time_buf[328];  // %.6f of the largest double is 317 bytes.
  const auto r = std::to_chars(time_buf, time_buf + sizeof(time_buf), time_,
                               std::chars_format::fixed, 6);
  out->append("{\"t\":");
  out->append(time_buf, r.ptr);
  out->append(",\"type\":\"");
  AppendJsonEscaped(type_, out);
  out->push_back('"');
  for (const auto& f : fields_) {
    out->append(",\"");
    AppendJsonEscaped(f.key, out);
    out->append("\":");
    switch (f.kind) {
      case EventField::Kind::kString:
        out->push_back('"');
        AppendJsonEscaped(f.str, out);
        out->push_back('"');
        break;
      case EventField::Kind::kInt:
        AppendInt(f.i64, out);
        break;
      case EventField::Kind::kDouble: {
        const size_t at = out->size();
        AppendFormattedDouble(f.f64, out);
        // Keep doubles round-trippable as doubles: a bare integer repr
        // would re-parse as an int field. ('n' covers inf and nan.)
        if (out->find_first_of(".en", at) == std::string::npos) {
          out->append(".0");
        }
        break;
      }
    }
  }
  out->push_back('}');
}

void EventJournal::SetCommonField(std::string key, std::string value) {
  for (auto& [k, v] : common_fields_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  common_fields_.emplace_back(std::move(key), std::move(value));
}

std::string EventJournal::CommonFieldOr(std::string_view key,
                                        std::string_view fallback) const {
  for (const auto& [k, v] : common_fields_) {
    if (k == key) return v;
  }
  return std::string(fallback);
}

Event& EventJournal::Append(double time, std::string type) {
  // Single-writer assertion: the first Append (after construction, Clear,
  // or Parse) pins the owning thread; cross-thread appends are a contract
  // violation, not a supported mode — the journal is a deterministic
  // ordered stream, and two writers would make the order racy.
  const std::thread::id self = std::this_thread::get_id();
  if (writer_ == std::thread::id()) {
    writer_ = self;
  } else {
    REDOOP_CHECK(writer_ == self)
        << "EventJournal::Append from a second thread violates the "
           "single-writer contract";
  }
  SealAndEvict();
  events_.emplace_back(time, std::move(type));
  Event& e = events_.back();
  for (const auto& [key, value] : common_fields_) {
    e.With(key, value);
  }
  return e;
}

void EventJournal::SetRetentionBudget(int64_t max_bytes) {
  retention_budget_ = max_bytes;
  if (retention_budget_ <= 0) return;
  // Appends made without a budget were never sized; seal them now (all but
  // the newest, which seals at the next Append like any other).
  while (sealed_sizes_.size() + 1 < events_.size()) {
    const int64_t bytes = SerializedBytes(events_[sealed_sizes_.size()]);
    sealed_sizes_.push_back(bytes);
    sealed_bytes_ += bytes;
  }
}

int64_t EventJournal::SerializedBytes(const Event& e) {
  size_scratch_.clear();
  e.AppendJson(&size_scratch_);
  return static_cast<int64_t>(size_scratch_.size()) + 1;
}

void EventJournal::SealAndEvict() {
  // Sizes only feed the budget: without one there is nothing to seal.
  if (retention_budget_ <= 0) return;
  // The newest event's fluent .With chain completes before the next
  // Append, so its serialized size is only knowable (and charged) here.
  if (events_.size() > sealed_sizes_.size()) {
    const int64_t bytes = SerializedBytes(events_.back());
    // A span end whose begin was already evicted is dropped at the seal
    // point: retaining it would fabricate an end-without-begin span.
    const std::string end_key = SpanEndKey(events_.back());
    if (!end_key.empty() && pending_orphan_ends_.erase(end_key) > 0) {
      dropped_bytes_ += bytes;
      ++dropped_events_;
      events_.pop_back();
      return;
    }
    // A fresh begin supersedes any stale orphan entry for its key (the
    // key now names a new, fully retained span whose end must survive).
    const std::string begin_key = SpanBeginKey(events_.back());
    if (!begin_key.empty()) pending_orphan_ends_.erase(begin_key);
    sealed_sizes_.push_back(bytes);
    sealed_bytes_ += bytes;
  }
  while (sealed_bytes_ > retention_budget_ && !sealed_sizes_.empty()) {
    const std::string begin_key = SpanBeginKey(events_.front());
    dropped_bytes_ += sealed_sizes_.front();
    sealed_bytes_ -= sealed_sizes_.front();
    sealed_sizes_.pop_front();
    events_.pop_front();
    ++dropped_events_;
    if (begin_key.empty()) continue;
    // Evict the whole span: drop the matching end event with its begin.
    // Spans with one key never interleave (task ids are unique; jobs and
    // windows of one query are serial), so the first matching end in the
    // sealed region is the right one.
    bool found = false;
    for (size_t i = 0; i < sealed_sizes_.size(); ++i) {
      if (SpanEndKey(events_[i]) != begin_key) continue;
      dropped_bytes_ += sealed_sizes_[i];
      sealed_bytes_ -= sealed_sizes_[i];
      sealed_sizes_.erase(sealed_sizes_.begin() +
                          static_cast<ptrdiff_t>(i));
      events_.erase(events_.begin() + static_cast<ptrdiff_t>(i));
      ++dropped_events_;
      found = true;
      break;
    }
    // Not journaled (or not yet sealed): catch it when it arrives.
    if (!found) pending_orphan_ends_.insert(begin_key);
  }
}

size_t EventJournal::CountType(std::string_view type) const {
  size_t n = 0;
  for (const auto& e : events_) {
    if (e.type() == type) ++n;
  }
  return n;
}

std::string EventJournal::ToJsonl() const {
  std::string out;
  size_t hint = 0;
  for (const auto& e : events_) hint += JsonSizeHint(e) + 1;
  if (dropped_events_ > 0) {
    // Lead a truncated journal with its marker so any consumer sees the
    // loss before the first surviving event. The timestamp is the oldest
    // retained event's (0 if nothing survived), which is recomputed
    // identically on reserialize, keeping parse -> serialize an identity.
    Event marker(events_.empty() ? 0.0 : events_.front().time(),
                 event::kJournalTruncated);
    marker.With("dropped_events", dropped_events_)
        .With("dropped_bytes", dropped_bytes_);
    out.reserve(hint + JsonSizeHint(marker) + 1);
    marker.AppendJson(&out);
    out += '\n';
  } else {
    out.reserve(hint);
  }
  for (const auto& e : events_) {
    e.AppendJson(&out);
    out += '\n';
  }
  return out;
}

Status EventJournal::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Unavailable("cannot open " + path + " for writing");
  }
  const std::string body = ToJsonl();
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size()) {
    return Status::Unavailable("short write to " + path);
  }
  return Status::OK();
}

namespace {

// Minimal scanner for the journal's own output format: one flat JSON
// object per line, keys and string values with the escapes
// AppendJsonEscaped emits, numbers as the serializer renders them. Keys,
// strings and numbers are scanned as views into the line; a string is
// decoded into a scratch buffer only when it holds a backslash.
class LineParser {
 public:
  LineParser(std::string_view line, size_t line_number)
      : s_(line), line_number_(line_number) {}

  Status Run(EventJournal* out) {
    if (!Consume('{')) return Error("expected '{'");
    std::string_view key;
    if (!ParseString(&key, &key_scratch_) || key != "t" || !Consume(':')) {
      return Error("expected \"t\" field first");
    }
    std::string_view number;
    bool is_double = false;
    if (!ParseNumber(&number, &is_double)) return Error("bad time");
    const double time = ToDouble(number);
    if (!Consume(',')) return Error("expected ','");
    if (!ParseString(&key, &key_scratch_) || key != "type" || !Consume(':')) {
      return Error("expected \"type\" field second");
    }
    std::string_view type;
    if (!ParseString(&type, &value_scratch_)) return Error("bad type");
    Event& e = out->Append(time, std::string(type));
    // Every remaining field follows a comma (commas inside strings only
    // over-reserve), so the field list is sized once instead of doubling.
    e.ReserveFields(static_cast<size_t>(
        std::count(s_.begin() + static_cast<ptrdiff_t>(pos_), s_.end(), ',')));
    while (Consume(',')) {
      if (!ParseString(&key, &key_scratch_) || !Consume(':')) {
        return Error("bad field key");
      }
      if (Peek() == '"') {
        std::string_view value;
        if (!ParseString(&value, &value_scratch_)) {
          return Error("bad string value");
        }
        e.With(key, value);
      } else {
        if (!ParseNumber(&number, &is_double)) return Error("bad number");
        if (is_double) {
          e.With(key, ToDouble(number));
        } else {
          e.With(key, ToInt(number));
        }
      }
    }
    if (!Consume('}')) return Error("expected '}'");
    if (pos_ != s_.size()) return Error("trailing garbage after '}'");
    return Status::OK();
  }

 private:
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }

  /// Sets `*out` to the string's contents: a view into the line, or into
  /// `*scratch` when escapes had to be decoded.
  bool ParseString(std::string_view* out, std::string* scratch) {
    if (!Consume('"')) return false;
    const size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != '"' && s_[pos_] != '\\') ++pos_;
    if (pos_ == s_.size()) return false;
    if (s_[pos_] == '"') {
      *out = s_.substr(start, pos_ - start);
      ++pos_;
      return true;
    }
    scratch->assign(s_.substr(start, pos_ - start));
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        char esc = s_[pos_++];
        switch (esc) {
          case 'n': scratch->push_back('\n'); break;
          case 't': scratch->push_back('\t'); break;
          case 'r': scratch->push_back('\r'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            // strtol keeps the historical reading of odd digits ("0x1f",
            // " -01"); the serializer only writes \u00xx.
            char hex[5] = {s_[pos_], s_[pos_ + 1], s_[pos_ + 2], s_[pos_ + 3],
                           '\0'};
            pos_ += 4;
            scratch->push_back(
                static_cast<char>(std::strtol(hex, nullptr, 16)));
            break;
          }
          default: scratch->push_back(esc);
        }
      } else {
        scratch->push_back(c);
      }
    }
    if (!Consume('"')) return false;
    *out = *scratch;
    return true;
  }

  bool ParseNumber(std::string_view* out, bool* is_double) {
    *is_double = false;
    const size_t start = pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E' || c == 'i' || c == 'n' || c == 'f' ||
          c == 'a') {
        if (c == '.' || c == 'e' || c == 'E' || c == 'i' || c == 'n') {
          *is_double = true;
        }
        ++pos_;
      } else {
        break;
      }
    }
    *out = s_.substr(start, pos_ - start);
    return !out->empty();
  }

  // Numbers convert with from_chars. A token it rejects or only partly
  // reads (a leading '+', "1e", an out-of-range value) falls back to
  // strtod/strtoll on a NUL-terminated copy, so every token the scanner
  // accepts reads as strtod/strtoll read it.
  static double ToDouble(std::string_view token) {
    double value = 0.0;
    const auto r =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (r.ec == std::errc() && r.ptr == token.data() + token.size()) {
      return value;
    }
    return std::strtod(std::string(token).c_str(), nullptr);
  }

  static int64_t ToInt(std::string_view token) {
    int64_t value = 0;
    const auto r =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (r.ec == std::errc() && r.ptr == token.data() + token.size()) {
      return value;
    }
    return static_cast<int64_t>(
        std::strtoll(std::string(token).c_str(), nullptr, 10));
  }

  Status Error(const char* what) const {
    return Status::InvalidArgument(
        StringPrintf("journal parse error at line %zu, offset %zu: %s",
                     line_number_, pos_, what));
  }

  std::string_view s_;
  size_t line_number_ = 0;
  size_t pos_ = 0;
  std::string key_scratch_;
  std::string value_scratch_;
};

}  // namespace

Status EventJournal::Parse(std::string_view jsonl, EventJournal* out) {
  // Accumulate into a fresh journal and swap in on success: `out`'s
  // registered common fields must not restamp parsed lines (they already
  // carry theirs inline — the seed appended through `out` directly, which
  // silently duplicated fields when loading into a configured journal),
  // and a failed parse must not leave `out` half-loaded.
  EventJournal parsed;
  size_t start = 0;
  size_t line_number = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    if (end == std::string_view::npos) end = jsonl.size();
    std::string_view line = jsonl.substr(start, end - start);
    ++line_number;
    if (!line.empty()) {
      Status s = LineParser(line, line_number).Run(&parsed);
      if (!s.ok()) {
        *out = EventJournal();
        return s;
      }
      // A truncation marker is journal metadata, not an event: fold it
      // back into the counters so a reserialize regenerates it.
      if (parsed.events_.back().type() == event::kJournalTruncated) {
        const Event& marker = parsed.events_.back();
        parsed.dropped_events_ += marker.IntOr("dropped_events", 0);
        parsed.dropped_bytes_ += marker.IntOr("dropped_bytes", 0);
        parsed.events_.pop_back();
      }
    }
    start = end + 1;
  }
  parsed.writer_ = std::thread::id();  // Unpin: parsing is not authorship.
  *out = std::move(parsed);
  return Status::OK();
}

Status EventJournal::LoadFile(const std::string& path, EventJournal* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::Unavailable("cannot open " + path + " for reading");
  }
  std::string body;
  char buffer[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    body.append(buffer, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Unavailable("read error on " + path);
  }
  return Parse(body, out);
}

}  // namespace obs
}  // namespace redoop
