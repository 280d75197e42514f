module matproj/bench

go 1.22

require matproj v0.0.0

replace matproj => ../
