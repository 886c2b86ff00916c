#ifndef OODGNN_UTIL_RNG_H_
#define OODGNN_UTIL_RNG_H_

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace oodgnn {

/// The 64-bit Mersenne Twister MT19937-64 (Matsumoto and Nishimura,
/// TOMACS 1998) with exactly the seeding, word sequence and stream text
/// of libstdc++'s std::mt19937_64, so every draw and every saved state
/// matches that engine's. The library keeps its own copy for two
/// reasons: the twist has no data-dependent branch, and TakeWords hands
/// out the untempered state block, so a bulk consumer (the dropout-mask
/// kernel, src/tensor/backend.h) tempers many words per call instead of
/// paying a call and a block check per word. Satisfies
/// UniformRandomBitGenerator, so the <random> distributions draw from it.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr int kStateWords = 312;

  // Tempering parameters (u, d), (s, b), (t, c) and l.
  static constexpr int kTemperU = 29;
  static constexpr result_type kTemperD = 0x5555555555555555ull;
  static constexpr int kTemperS = 17;
  static constexpr result_type kTemperB = 0x71D67FFFEDA60000ull;
  static constexpr int kTemperT = 37;
  static constexpr result_type kTemperC = 0xFFF7EEE000000000ull;
  static constexpr int kTemperL = 43;

  explicit Mt19937_64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// The next word of the stream.
  result_type operator()() {
    if (index_ >= kStateWords) Twist();
    return Temper(state_[index_++]);
  }

  /// Consumes the next min(max_words, words left in the block) words of
  /// the stream, twisting first when the block is spent, and returns
  /// their untempered state; *count receives how many (at least 1).
  /// Temper(words[i]) is the value operator() would have returned.
  /// Requires max_words >= 1; the pointer is valid until the next draw.
  const result_type* TakeWords(int max_words, int* count);

  /// MT19937-64's output transform of one state word.
  static constexpr result_type Temper(result_type z) {
    z ^= (z >> kTemperU) & kTemperD;
    z ^= (z << kTemperS) & kTemperB;
    z ^= (z << kTemperT) & kTemperC;
    z ^= z >> kTemperL;
    return z;
  }

  /// libstdc++'s `operator<<` text: the 312 state words, then the
  /// index, in decimal, separated by single spaces.
  std::string ToText() const;

  /// Parses ToText's format (any whitespace between fields). Returns
  /// false and leaves the engine untouched unless the text is exactly
  /// 312 words that fit in 64 bits and an index in [0, 312].
  bool FromText(const std::string& text);

  bool operator==(const Mt19937_64& other) const = default;

 private:
  void Twist();

  std::array<result_type, kStateWords> state_;
  int index_;  ///< Next word to temper; kStateWords means "twist first".
};

/// Deterministic random number generator used by every stochastic
/// component in the library: an Mt19937_64 with convenience samplers.
/// Copies are cheap and independent.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform real in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);

  /// Normal deviate with the given mean and standard deviation.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// The integer form of Bernoulli(p): for 0 <= p < 1, Bernoulli(p) is
  /// true exactly when the engine's next word is below this threshold,
  /// so a bulk consumer can test raw words instead of calling it.
  static uint64_t BernoulliThreshold(double p);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffles the given index vector in place.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

  /// Returns a random permutation of [0, n).
  std::vector<size_t> Permutation(size_t n);

  /// Serializes the engine state as text (Mt19937_64::ToText, which is
  /// byte-equal to std::mt19937_64's stream format). Restoring it
  /// reproduces the exact output sequence, so checkpointed runs resume
  /// bit-identically.
  std::string SaveState() const { return engine_.ToText(); }

  /// Restores a state produced by SaveState. Returns false (leaving the
  /// engine untouched) if the string is not a valid serialized state.
  bool LoadState(const std::string& state) { return engine_.FromText(state); }

  /// Direct access for interoperating with <random> distributions and
  /// for bulk consumers of raw words.
  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace oodgnn

#endif  // OODGNN_UTIL_RNG_H_
