// Fixture: a reference enumeration in src/check whose odometer scores
// every point but never polls a Deadline — the rule covers the reference
// solvers by name, so the loop is flagged like one in src/core.
namespace fx {

int score(const int* delta, int n) {
  int gain = 0;
  for (int i = 0; i < n; ++i) gain += delta[i];
  return gain;
}

int enumerate(int* delta, int n, int bound) {
  int best = 0;
  for (;;) {  // line 14: open-ended, works, never polls
    const int gain = score(delta, n);
    if (gain > best) best = gain;
    int i = 0;
    for (; i < n; ++i) {
      if (delta[i] < bound) {
        ++delta[i];
        break;
      }
      delta[i] = 0;
    }
    if (i == n) break;
  }
  return best;
}

}  // namespace fx
