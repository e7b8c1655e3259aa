#include "common.h"

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace punctbench {

uint64_t TupleRowHash(const punctsafe::Tuple& t) {
  uint64_t h = 0;
  for (const punctsafe::Value& v : t.values()) {
    h = FoldHash(h, v.type() == punctsafe::ValueType::kString
                        ? StringHash(v.AsString())
                        : IntHash(v.AsInt64()));
  }
  return h;
}

double Quantile(std::vector<int64_t>* v, double q) {
  if (v->empty()) return 0;
  double rank = q * static_cast<double>(v->size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  std::nth_element(v->begin(), v->begin() + static_cast<long>(lo), v->end());
  double low = static_cast<double>((*v)[lo]);
  if (lo + 1 >= v->size()) return low;
  // The next order statistic is the minimum of the upper part.
  double high = static_cast<double>(
      *std::min_element(v->begin() + static_cast<long>(lo) + 1, v->end()));
  return low + (high - low) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

size_t RssBytes() {
  static const int fd = open("/proc/self/statm", O_RDONLY);
  static const long page = sysconf(_SC_PAGESIZE);
  char buf[128];
  ssize_t n = fd < 0 ? -1 : pread(fd, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return 0;
  buf[n] = '\0';
  unsigned long size = 0, resident = 0;
  if (std::sscanf(buf, "%lu %lu", &size, &resident) != 2) return 0;
  return resident * static_cast<size_t>(page);
}

void TrimHeap() { malloc_trim(0); }

}  // namespace punctbench
