// The library's one random engine: the 64-bit Mersenne Twister (MT19937-64,
// Matsumoto & Nishimura). Its output stream and its text state (operator<<,
// operator>>) are those of the standard library's mt19937_64 word for word,
// so the standard distributions draw the same values from it and a
// snapshot's engine text reads the same under either.
//
// Two things differ from libstdc++'s engine. The twist has no data-dependent
// branch: the twist matrix is masked in (`a & (0 - (y & 1))`) where
// libstdc++ selects it with `(y & 1) ? a : 0`, which gcc compiles to a jump
// that mispredicts on about half of the words. And the whole 312-word block
// is tempered at the twist, so a caller that consumes words in bulk
// (lte::draw_srs_noise) can read the tempered words left in the block
// (block()) and then skip past those it used (advance()).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <span>

namespace skyran::geo {

class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  /// Words per block: the twist renews the whole state at once.
  static constexpr std::size_t kBlockWords = 312;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// The standard mt19937_64's default seed.
  Mt19937_64() : Mt19937_64(5489u) {}

  explicit Mt19937_64(result_type seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kBlockWords; ++i)
      x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
  }

  result_type operator()() {
    if (p_ == kBlockWords) twist();
    return out_[p_++];
  }

  /// The tempered words the next calls of operator() would return, up to the
  /// end of the current block. Twists first when the block is spent, as the
  /// next operator() would, so the view is never empty.
  std::span<const result_type> block() {
    if (p_ == kBlockWords) twist();
    return {out_.data() + p_, kBlockWords - p_};
  }

  /// Skip the first `k` words of block(); `k` must not exceed its size.
  void advance(std::size_t k) { p_ += k; }

  /// The state as the standard mt19937_64 writes it: the 312 untempered
  /// words, then the index of the next word, space-separated in decimal.
  template <class CharT, class Traits>
  friend std::basic_ostream<CharT, Traits>& operator<<(std::basic_ostream<CharT, Traits>& os,
                                                       const Mt19937_64& g) {
    const auto flags = os.flags();
    const CharT fill = os.fill();
    const CharT space = os.widen(' ');
    os.flags(std::ios_base::dec | std::ios_base::fixed | std::ios_base::left);
    os.fill(space);
    for (const result_type w : g.x_) os << w << space;
    os << g.p_;
    os.flags(flags);
    os.fill(fill);
    return os;
  }

  /// Reads what operator<< (or the standard mt19937_64's) wrote. Malformed
  /// text or an index above 312 sets failbit and leaves `g` as it was.
  template <class CharT, class Traits>
  friend std::basic_istream<CharT, Traits>& operator>>(std::basic_istream<CharT, Traits>& is,
                                                       Mt19937_64& g) {
    const auto flags = is.flags();
    is.flags(std::ios_base::dec | std::ios_base::skipws);
    std::array<result_type, kBlockWords> x{};
    std::size_t p = 0;
    for (result_type& w : x) is >> w;
    is >> p;
    is.flags(flags);
    if (!is.fail() && p > kBlockWords) is.setstate(std::ios_base::failbit);
    if (is.fail()) return is;
    g.x_ = x;
    g.p_ = p;
    g.temper_block();
    return is;
  }

 private:
  /// Renew all 312 state words (the recurrence of libstdc++'s
  /// _M_gen_rand, branch-free) and temper them into out_.
  void twist() {
    constexpr std::size_t n = kBlockWords;
    constexpr std::size_t m = 156;
    constexpr result_type kUpper = ~result_type{0} << 31;
    constexpr result_type kLower = ~kUpper;
    constexpr result_type kA = 0xb5026f5aa96619e9ULL;
    const auto mix = [](result_type hi, result_type lo, result_type far) {
      const result_type y = (hi & kUpper) | (lo & kLower);
      return far ^ (y >> 1) ^ (kA & (0 - (y & 1)));
    };
    for (std::size_t k = 0; k < n - m; ++k) x_[k] = mix(x_[k], x_[k + 1], x_[k + m]);
    for (std::size_t k = n - m; k < n - 1; ++k) x_[k] = mix(x_[k], x_[k + 1], x_[k + m - n]);
    x_[n - 1] = mix(x_[n - 1], x_[0], x_[m - 1]);
    temper_block();
    p_ = 0;
  }

  void temper_block() {
    for (std::size_t i = 0; i < kBlockWords; ++i) {
      result_type z = x_[i];
      z ^= (z >> 29) & 0x5555555555555555ULL;
      z ^= (z << 17) & 0x71d67fffeda60000ULL;
      z ^= (z << 37) & 0xfff7eee000000000ULL;
      z ^= z >> 43;
      out_[i] = z;
    }
  }

  std::array<result_type, kBlockWords> x_;      ///< untempered state words
  std::array<result_type, kBlockWords> out_{};  ///< x_ tempered, valid when p_ < 312
  std::size_t p_ = kBlockWords;                 ///< index of the next word of out_
};

}  // namespace skyran::geo
