// Fixture: writer half of a properly paired checkpoint section.
#include "support/checkpoint.hpp"

namespace fx {

// Only code writes a section; naming with_section("phantom", blob) in a
// comment writes nothing.
void save(Image& img) {
  img.sections.emplace_back("orphan", 0, 0);
}

}  // namespace fx
