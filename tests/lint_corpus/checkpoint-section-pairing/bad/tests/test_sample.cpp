// Fixture: a test that decodes the orphan section. Tests are not restore
// paths, so this read must not pair the production writer.
#include "support/checkpoint.hpp"

namespace fx {

bool inspect(const Image& img) {
  return img.find("orphan") != nullptr;
}

}  // namespace fx
