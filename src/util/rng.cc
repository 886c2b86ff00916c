#include "src/util/rng.h"

#include <algorithm>
#include <charconv>
#include <numeric>

#include "src/util/check.h"

namespace oodgnn {

Mt19937_64::Mt19937_64(result_type seed) {
  constexpr result_type kInitMultiplier = 6364136223846793005ull;
  state_[0] = seed;
  for (int i = 1; i < kStateWords; ++i) {
    const result_type prev = state_[static_cast<size_t>(i) - 1];
    state_[static_cast<size_t>(i)] =
        kInitMultiplier * (prev ^ (prev >> 62)) + static_cast<result_type>(i);
  }
  index_ = kStateWords;
}

void Mt19937_64::Twist() {
  constexpr int kShift = 156;  // m
  constexpr result_type kUpperMask = ~result_type{0} << 31;
  constexpr result_type kMatrixA = 0xB5026F5AA96619E9ull;
  // new x[k] = x[k + m] ^ (y >> 1) ^ (y odd ? a : 0), y = upper bits of
  // x[k] | lower bits of x[k + 1]; the odd test is a mask, not a branch.
  const auto next = [](result_type k_word, result_type k1_word,
                       result_type far_word) {
    const result_type y = (k_word & kUpperMask) | (k1_word & ~kUpperMask);
    return far_word ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & kMatrixA);
  };
  // Both loops take an even number of steps, which lets GCC's -O2
  // vectorizer run them two words per SSE2 vector with no remainder.
  result_type* x = state_.data();
  for (int k = 0; k < kStateWords - kShift; ++k) {
    x[k] = next(x[k], x[k + 1], x[k + kShift]);
  }
  for (int k = kStateWords - kShift; k < kStateWords - 2; ++k) {
    x[k] = next(x[k], x[k + 1], x[k + kShift - kStateWords]);
  }
  x[kStateWords - 2] =
      next(x[kStateWords - 2], x[kStateWords - 1], x[kShift - 2]);
  x[kStateWords - 1] = next(x[kStateWords - 1], x[0], x[kShift - 1]);
  index_ = 0;
}

const Mt19937_64::result_type* Mt19937_64::TakeWords(int max_words,
                                                     int* count) {
  OODGNN_CHECK_GE(max_words, 1);
  if (index_ >= kStateWords) Twist();
  const int begin = index_;
  *count = std::min(max_words, kStateWords - begin);
  index_ = begin + *count;
  return state_.data() + begin;
}

std::string Mt19937_64::ToText() const {
  // 20 digits bound a 64-bit word.
  char buffer[(kStateWords + 1) * 21];
  char* out = buffer;
  char* const end = buffer + sizeof(buffer);
  for (const result_type word : state_) {
    out = std::to_chars(out, end, word).ptr;
    *out++ = ' ';
  }
  out = std::to_chars(out, end, index_).ptr;
  return std::string(buffer, out);
}

bool Mt19937_64::FromText(const std::string& text) {
  // The whitespace the stream extraction of a word would skip.
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
  };
  const char* cursor = text.data();
  const char* const end = cursor + text.size();
  const auto read_field = [&](result_type* value) {
    while (cursor != end && is_space(*cursor)) ++cursor;
    const std::from_chars_result parsed = std::from_chars(cursor, end, *value);
    if (parsed.ec != std::errc() ||
        (parsed.ptr != end && !is_space(*parsed.ptr))) {
      return false;
    }
    cursor = parsed.ptr;
    return true;
  };
  std::array<result_type, kStateWords> words;
  for (result_type& word : words) {
    if (!read_field(&word)) return false;
  }
  result_type index = 0;
  if (!read_field(&index) || index > static_cast<result_type>(kStateWords)) {
    return false;
  }
  while (cursor != end && is_space(*cursor)) ++cursor;
  if (cursor != end) return false;
  state_ = words;
  index_ = static_cast<int>(index);
  return true;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  OODGNN_CHECK_LE(lo, hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::Normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

uint64_t Rng::BernoulliThreshold(double p) {
  OODGNN_CHECK(p >= 0.0 && p < 1.0) << "p = " << p;
  // The distribution draws one word x from a 64-bit engine and tests
  // double(x)·2⁻⁶⁴ < p (clamped below 1). Rounding to double is monotone
  // in x, so the test holds exactly for x below one threshold T, and it
  // fails at the largest word because p < 1. Bisect for T, asking the
  // distribution itself about each candidate word.
  struct OneWord {
    using result_type = uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() { return word; }
    result_type word;
  };
  std::bernoulli_distribution dist(p);
  uint64_t lo = 0;               // T >= lo.
  uint64_t hi = OneWord::max();  // The test fails at hi, so T <= hi.
  while (lo < hi) {
    OneWord mid{lo + (hi - lo) / 2};
    if (dist(mid)) {
      lo = mid.word + 1;
    } else {
      hi = mid.word;
    }
  }
  return lo;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  OODGNN_CHECK(!weights.empty());
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  OODGNN_CHECK_GT(total, 0.0) << "categorical weights must not all be zero";
  double r = Uniform(0.0, total);
  double cumulative = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i];
    if (r < cumulative) return i;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), size_t{0});
  Shuffle(&perm);
  return perm;
}

}  // namespace oodgnn
