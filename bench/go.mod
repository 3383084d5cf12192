module fibbing.net/fibbing/bench

go 1.24.0

require fibbing.net/fibbing v0.0.0

replace fibbing.net/fibbing => ../
