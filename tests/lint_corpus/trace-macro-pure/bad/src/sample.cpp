// Fixture: a side-effecting argument makes the counter part of the
// computation, so deleting the counter would change what the code returns.
#define SERELIN_COUNT(counter, n) ((void)(n))

int count_and_bump(int work) {
  SERELIN_COUNT(kSolverIterations, ++work);  // line 6: serelin-trace-macro-pure
  return work;
}
