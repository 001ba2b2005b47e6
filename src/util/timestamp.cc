#include "src/util/timestamp.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace txml {
namespace {

// Days from 1970-01-01 to year/month/day (proleptic Gregorian). Algorithm
// from Howard Hinnant's chrono date algorithms (days_from_civil).
int64_t DaysFromCivil(int y, unsigned m, unsigned d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);            // [0, 399]
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;           // [0, 146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

// Inverse of DaysFromCivil (civil_from_days).
void CivilFromDays(int64_t z, int* y, unsigned* m, unsigned* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);          // [0, 146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;             // [0, 399]
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);          // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                               // [0, 11]
  *d = doy - (153 * mp + 2) / 5 + 1;                                     // [1, 31]
  *m = mp + (mp < 10 ? 3 : -9);                                          // [1, 12]
  *y = static_cast<int>(yy + (*m <= 2));
}

bool ParseFixedUint(std::string_view text, size_t pos, size_t len,
                    int* out) {
  if (pos + len > text.size()) return false;
  int value = 0;
  for (size_t i = 0; i < len; ++i) {
    char c = text[pos + i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  *out = value;
  return true;
}

int DaysInMonth(int year, int month) {
  static const int kDays[12] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month == 2) {
    bool leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
    return leap ? 29 : 28;
  }
  return kDays[month - 1];
}

}  // namespace

Timestamp Timestamp::FromDate(int year, int month, int day) {
  return Timestamp::FromMicros(
      DaysFromCivil(year, static_cast<unsigned>(month),
                    static_cast<unsigned>(day)) *
      kMicrosPerDay);
}

StatusOr<Timestamp> Timestamp::ParseDate(std::string_view text) {
  int day, month, year;
  if (!ParseFixedUint(text, 0, 2, &day) || text.size() < 10 ||
      text[2] != '/' || !ParseFixedUint(text, 3, 2, &month) ||
      text[5] != '/' || !ParseFixedUint(text, 6, 4, &year)) {
    return Status::ParseError("expected dd/mm/yyyy date, got '" +
                              std::string(text) + "'");
  }
  if (month < 1 || month > 12 || day < 1 || day > DaysInMonth(year, month)) {
    return Status::ParseError("invalid calendar date '" + std::string(text) +
                              "'");
  }
  Timestamp ts = FromDate(year, month, day);
  if (text.size() == 10) return ts;
  // Optional " hh:mm:ss" suffix.
  int hour, minute, second;
  if (text.size() != 19 || text[10] != ' ' ||
      !ParseFixedUint(text, 11, 2, &hour) || text[13] != ':' ||
      !ParseFixedUint(text, 14, 2, &minute) || text[16] != ':' ||
      !ParseFixedUint(text, 17, 2, &second) || hour > 23 || minute > 59 ||
      second > 59) {
    return Status::ParseError("expected dd/mm/yyyy hh:mm:ss, got '" +
                              std::string(text) + "'");
  }
  return ts.AddSeconds(hour * 3600 + minute * 60 + second);
}

StatusOr<Timestamp> Timestamp::ParseFlexible(std::string_view text) {
  auto native = ParseDate(text);
  if (native.ok()) return native;
  // ISO yyyy-mm-dd [hh:mm:ss]: rewrite into the native layout and reuse
  // the validating parser.
  if (text.size() >= 10 && text[4] == '-' && text[7] == '-') {
    std::string rewritten;
    rewritten += text.substr(8, 2);
    rewritten += '/';
    rewritten += text.substr(5, 2);
    rewritten += '/';
    rewritten += text.substr(0, 4);
    if (text.size() > 10) rewritten += text.substr(10);
    return ParseDate(rewritten);
  }
  return Status::ParseError("unrecognised date '" + std::string(text) + "'");
}

std::vector<TimeInterval> Coalesce(std::vector<TimeInterval> intervals) {
  if (intervals.empty()) return intervals;
  std::sort(intervals.begin(), intervals.end(),
            [](const TimeInterval& a, const TimeInterval& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.end < b.end;
            });
  std::vector<TimeInterval> merged;
  merged.push_back(intervals.front());
  for (size_t i = 1; i < intervals.size(); ++i) {
    const TimeInterval& next = intervals[i];
    if (next.start <= merged.back().end) {
      if (next.end > merged.back().end) merged.back().end = next.end;
    } else {
      merged.push_back(next);
    }
  }
  return merged;
}

Timestamp Timestamp::AddSeconds(int64_t n) const {
  return AddMicros(n * kMicrosPerSecond);
}
Timestamp Timestamp::AddMinutes(int64_t n) const { return AddSeconds(n * 60); }
Timestamp Timestamp::AddHours(int64_t n) const { return AddSeconds(n * 3600); }
Timestamp Timestamp::AddDays(int64_t n) const {
  return AddMicros(n * kMicrosPerDay);
}
Timestamp Timestamp::AddWeeks(int64_t n) const { return AddDays(n * 7); }

std::string Timestamp::ToString() const {
  if (micros_ == INT64_MAX) return "inf";
  if (micros_ == INT64_MIN) return "-inf";
  int64_t days = micros_ / kMicrosPerDay;
  int64_t rem = micros_ % kMicrosPerDay;
  if (rem < 0) {
    days -= 1;
    rem += kMicrosPerDay;
  }
  int year;
  unsigned month, day;
  CivilFromDays(days, &year, &month, &day);
  char buf[48];
  if (rem == 0) {
    std::snprintf(buf, sizeof(buf), "%02u/%02u/%04d", day, month, year);
    return buf;
  }
  int64_t secs = rem / kMicrosPerSecond;
  int64_t usecs = rem % kMicrosPerSecond;
  if (usecs == 0) {
    std::snprintf(buf, sizeof(buf), "%02u/%02u/%04d %02d:%02d:%02d", day,
                  month, year, static_cast<int>(secs / 3600),
                  static_cast<int>((secs / 60) % 60),
                  static_cast<int>(secs % 60));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%02u/%02u/%04d %02d:%02d:%02d.%06" PRId64, day, month,
                  year, static_cast<int>(secs / 3600),
                  static_cast<int>((secs / 60) % 60),
                  static_cast<int>(secs % 60), usecs);
  }
  return buf;
}

std::string TimeInterval::ToString() const {
  // Appended piecewise: GCC 12 at -O2/-O3 inlines the memcpy of a chained
  // `"[" + a + ", " + b` temporary and raises a false -Werror=restrict.
  std::string out = "[";
  out += start.ToString();
  out += ", ";
  out += end.ToString();
  out += ")";
  return out;
}

}  // namespace txml
