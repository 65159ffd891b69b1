// Fixture: the same odometer, but every point polls the deadline, so an
// expiry stops the enumeration promptly.
namespace fx {

int score(const int* delta, int n) {
  int gain = 0;
  for (int i = 0; i < n; ++i) gain += delta[i];
  return gain;
}

int enumerate(const Deadline& deadline, int* delta, int n, int bound) {
  int best = 0;
  for (;;) {
    if (deadline.expired()) break;
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
