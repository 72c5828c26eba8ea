module steghide/bench

go 1.24

require steghide v0.0.0

replace steghide => ../
