// Fixture: solver code constructing the dense W/D reference directly
// instead of finding the minimum period with MinPeriodRetimer.
#include "core/wd_matrices.hpp"

void plan(const serelin::RetimingGraph& g) {
  serelin::WdMatrices wd(g);  // line 6: serelin-wd-dense-gated fires here
  (void)wd;
}
