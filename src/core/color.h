// Object colors, following the paper's presentation (§2.3, §3):
//  white — not yet covered by the solution,
//  grey  — covered by some selected (black) object,
//  black — selected into the diverse subset,
//  red   — transient zoom-out state: was black at the old radius and awaits
//          a keep-or-drop decision at the new one (Algorithm 3).

#ifndef DISC_CORE_COLOR_H_
#define DISC_CORE_COLOR_H_

#include <cstdint>

namespace disc {

enum class Color : uint8_t {
  kWhite = 0,
  kGrey = 1,
  kBlack = 2,
  kRed = 3,
};

}  // namespace disc

#endif  // DISC_CORE_COLOR_H_
