module scrub/bench

go 1.22

require scrub v0.0.0

replace scrub => ../
