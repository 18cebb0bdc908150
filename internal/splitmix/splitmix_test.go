package splitmix

import "testing"

// TestMixKnownAnswers pins Mix to known SplitMix64 answers: the
// fault, workload and backoff schedules seeded through it are golden, so
// the function must never change.
func TestMixKnownAnswers(t *testing.T) {
	for _, tc := range []struct{ in, want uint64 }{
		{0, 0xe220a8397b1dcdaf},
		{1, 0x910a2dec89025cc1},
	} {
		if got := Mix(tc.in); got != tc.want {
			t.Errorf("Mix(%d) = %#x, want %#x", tc.in, got, tc.want)
		}
	}
}
